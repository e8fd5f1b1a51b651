package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// quantAlgos are the families with an SQ8 compressed traversal tier.
var quantAlgos = []string{"hnsw", "diskann", "hcnng", "togg"}

// buildQuantFamily mirrors buildFamily but with Quantized set and a
// non-trivial rerank width, so the saved SQ8 tier carries every field
// the codec round-trips.
func buildQuantFamily(tb testing.TB, algo string, m vec.Metric, data []vec.Vector, rerank int) ann.Index {
	tb.Helper()
	var (
		idx ann.Index
		err error
	)
	switch algo {
	case "hnsw":
		idx, err = hnsw.Build(data, hnsw.Config{
			M: 6, EfConstruction: 40, EfSearch: 32, Metric: m, Seed: 3,
			Quantized: true, Rerank: rerank,
		})
	case "diskann":
		idx, err = vamana.Build(data, vamana.Config{
			R: 12, L: 32, LSearch: 32, Alpha: 1.2, Metric: m, Seed: 3,
			Quantized: true, Rerank: rerank,
		})
	case "hcnng":
		idx, err = hcnng.Build(data, hcnng.Config{
			Clusterings: 4, LeafSize: 16, MaxDegree: 12, LSearch: 32, Metric: m, Seed: 3,
			Quantized: true, Rerank: rerank,
		})
	case "togg":
		idx, err = togg.Build(data, togg.Config{
			K: 8, GuideDims: 4, GuideHops: 16, LSearch: 32, Metric: m, Seed: 3,
			Quantized: true, Rerank: rerank,
		})
	default:
		tb.Fatalf("no quantized build for algo %q", algo)
	}
	if err != nil {
		tb.Fatalf("build quantized %s: %v", algo, err)
	}
	return idx
}

// quantParams extracts the quantization mode a loaded index reports.
func quantParams(tb testing.TB, idx ann.Index) (quantized bool, rerank int, mat *vec.Matrix) {
	tb.Helper()
	mat = idx.Store().(*ann.KernelStore).Matrix()
	switch x := idx.(type) {
	case *hnsw.Index:
		cfg := x.Params()
		return cfg.Quantized, cfg.Rerank, mat
	case *vamana.Index:
		cfg := x.Params()
		return cfg.Quantized, cfg.Rerank, mat
	case *hcnng.Index:
		cfg := x.Params()
		return cfg.Quantized, cfg.Rerank, mat
	case *togg.Index:
		cfg := x.Params()
		return cfg.Quantized, cfg.Rerank, mat
	default:
		tb.Fatalf("no quant params for index type %T", idx)
		return false, 0, nil
	}
}

// requireSameSQ8 asserts two compressed tiers are bitwise identical —
// scale factors included, which is what makes resaves byte-identical.
func requireSameSQ8(t *testing.T, got, want *vec.SQ8) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("SQ8 tier missing: got %v, want %v", got != nil, want != nil)
	}
	if got.Rows() != want.Rows() || got.Dim() != want.Dim() {
		t.Fatalf("SQ8 shape %dx%d, want %dx%d", got.Rows(), got.Dim(), want.Rows(), want.Dim())
	}
	for i, s := range want.Scales() {
		if math.Float32bits(got.Scales()[i]) != math.Float32bits(s) {
			t.Fatalf("scale[%d] = %v (bits %08x), want %v (bits %08x)",
				i, got.Scales()[i], math.Float32bits(got.Scales()[i]), s, math.Float32bits(s))
		}
	}
	if !bytes.Equal(got.Codes(), want.Codes()) {
		t.Fatalf("code buffers differ")
	}
}

// A loaded quantized snapshot serves searches byte-identically to the
// built index: same codes traversed, same rerank width, same exact
// distances on the head.
func TestQuantizedWarmStartEquivalence(t *testing.T) {
	const n, dim = 220, 20
	queries := testQueries(12, dim, 99)
	for _, algo := range quantAlgos {
		for _, m := range metricsOf(algo) {
			t.Run(algo+"/"+m.String(), func(t *testing.T) {
				built := buildQuantFamily(t, algo, m, testData(n, dim, 7), 24)
				var buf bytes.Buffer
				if _, err := Save(&buf, built, vec.F32); err != nil {
					t.Fatalf("save: %v", err)
				}
				loaded, _, err := Load(buf.Bytes())
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				quantized, rerank, lmat := quantParams(t, loaded)
				if !quantized || rerank != 24 {
					t.Fatalf("loaded params quantized=%v rerank=%d, want true/24", quantized, rerank)
				}
				_, _, bmat := quantParams(t, built)
				requireSameSQ8(t, lmat.SQ8(), bmat.SQ8())
				for _, q := range queries {
					for _, k := range []int{1, 5, 17, n + 50} {
						requireSameResults(t, t.Name(),
							loaded.Search(q, k), built.Search(q, k))
					}
				}
			})
		}
	}
}

// A RAM load keeps nothing of the file image: overwriting the bytes
// Load read leaves the loaded index's SQ8 codes and its search results
// unchanged. A code buffer aliasing the image would change with it,
// and would keep the whole image (rows and adjacency) reachable.
func TestQuantizedLoadDoesNotPinImage(t *testing.T) {
	const n, dim = 160, 12
	queries := testQueries(6, dim, 5)
	for _, algo := range quantAlgos {
		t.Run(algo, func(t *testing.T) {
			built := buildQuantFamily(t, algo, vec.L2, testData(n, dim, 3), 16)
			var buf bytes.Buffer
			if _, err := Save(&buf, built, vec.F32); err != nil {
				t.Fatalf("save: %v", err)
			}
			data := buf.Bytes()
			loaded, _, err := Load(data)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			_, _, mat := quantParams(t, loaded)
			codes := bytes.Clone(mat.SQ8().Codes())
			want := make([][]ann.Neighbor, len(queries))
			for i, q := range queries {
				want[i] = loaded.Search(q, 10)
			}
			for i := range data {
				data[i] = 0xA5
			}
			if !bytes.Equal(mat.SQ8().Codes(), codes) {
				t.Fatal("overwriting the file image changed the loaded SQ8 codes")
			}
			for i, q := range queries {
				requireSameResults(t, t.Name(), loaded.Search(q, 10), want[i])
			}
		})
	}
}

// The acceptance property from the issue: a quantized index round-trips
// snapshots byte-identically, scale factors included. Save → Load →
// Save must reproduce the file bit for bit, which can only hold if the
// loader attaches the stored codes instead of requantizing.
func TestQuantizedSnapshotByteIdenticalResave(t *testing.T) {
	const n, dim = 180, 16
	data := testData(n, dim, 11)
	for _, algo := range quantAlgos {
		t.Run(algo, func(t *testing.T) {
			built := buildQuantFamily(t, algo, vec.L2, data, 12)
			var first bytes.Buffer
			if _, err := Save(&first, built, vec.F32); err != nil {
				t.Fatalf("save: %v", err)
			}
			f, err := parse(image(first.Bytes()), int64(first.Len()))
			if err != nil {
				t.Fatalf("parse own save: %v", err)
			}
			if _, ok := f.sections["sq8s"]; !ok {
				t.Fatalf("quantized save has no sq8s section")
			}
			loaded, _, err := Load(first.Bytes())
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			var second bytes.Buffer
			if _, err := Save(&second, loaded, vec.F32); err != nil {
				t.Fatalf("resave: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("resave differs: %d vs %d bytes", first.Len(), second.Len())
			}

			// And the converse: a full-precision save never grows the
			// section, so old readers' section sets are undisturbed.
			plain := buildFamily(t, algo, vec.L2, data)
			var pbuf bytes.Buffer
			if _, err := Save(&pbuf, plain, vec.F32); err != nil {
				t.Fatalf("save plain: %v", err)
			}
			pf, err := parse(image(pbuf.Bytes()), int64(pbuf.Len()))
			if err != nil {
				t.Fatalf("parse plain save: %v", err)
			}
			if _, ok := pf.sections["sq8s"]; ok {
				t.Fatalf("full-precision save grew an sq8s section")
			}
		})
	}
}

// Damage to a quantized file's SQ8 tier surfaces as the right typed
// error: bit rot under a checksum (the scales in "sq8s", the codes in
// the blocks records) is ErrChecksum; a structurally invalid "sq8s"
// payload behind a valid checksum is ErrCorrupt. Never a panic, and
// the paged open refuses each "sq8s" image with the same sentinel as
// Load; a flipped code byte it cannot see, because it never reads the
// whole blocks payload.
func TestSQ8SectionCorruption(t *testing.T) {
	built := buildQuantFamily(t, "hnsw", vec.L2, testData(100, 8, 23), 8)
	var buf bytes.Buffer
	if _, err := Save(&buf, built, vec.F32); err != nil {
		t.Fatalf("save: %v", err)
	}
	good := buf.Bytes()
	f, err := parse(image(good), int64(len(good)))
	if err != nil {
		t.Fatalf("parse own save: %v", err)
	}
	// The last code byte of node 0's record.
	m := f.blocks.meta
	codeByte := m.nodeOffset(0) + int64(m.codeOffset(f.header.Elem)+m.dim-1)

	// "sq8s" payload layout (see quant.go): rerank u32, dim u32, scales.
	const (
		rerankOff = 0
		dimOff    = 4
		scalesOff = 8
	)
	cases := []struct {
		name   string
		mutate func(img, sq8s []byte)
		reseal bool
		want   error
		// pagedOpens marks damage inside the blocks payload, which
		// OpenPagedFile never checksums (only Load reads all of it).
		pagedOpens bool
	}{
		{"flip scale byte", func(_, p []byte) { p[scalesOff] ^= 0xFF }, false, ErrChecksum, false},
		{"flip code byte", func(img, _ []byte) { img[codeByte] ^= 0xFF }, false, ErrChecksum, true},
		{"dim mismatch", func(_, p []byte) {
			binary.LittleEndian.PutUint32(p[dimOff:], binary.LittleEndian.Uint32(p[dimOff:])+1)
		}, true, ErrCorrupt, false},
		{"rerank out of range", func(_, p []byte) {
			binary.LittleEndian.PutUint32(p[rerankOff:], 0xFFFFFFFF)
		}, true, ErrCorrupt, false},
		{"NaN scale", func(_, p []byte) {
			binary.LittleEndian.PutUint32(p[scalesOff:], math.Float32bits(float32(math.NaN())))
		}, true, ErrCorrupt, false},
		{"negative scale", func(_, p []byte) {
			binary.LittleEndian.PutUint32(p[scalesOff:], math.Float32bits(-1))
		}, true, ErrCorrupt, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := append([]byte(nil), good...)
			_, off, n := sectionFrame(t, bad, "sq8s")
			tc.mutate(bad, bad[off:off+n])
			if tc.reseal {
				resealFrame(t, bad, "sq8s")
			}
			if _, err := loadBytes(t, tc.name, bad); !errors.Is(err, tc.want) {
				t.Errorf("Load: err = %v, want %v", err, tc.want)
			}
			want := tc.want
			if tc.pagedOpens {
				want = nil
			}
			pi, err := openPagedBytes(t, tc.name, bad)
			if err == nil {
				pi.Close()
			}
			if !errors.Is(err, want) {
				t.Errorf("OpenPagedFile: err = %v, want %v", err, want)
			}
		})
	}
}
