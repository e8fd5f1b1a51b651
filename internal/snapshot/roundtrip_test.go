package snapshot

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/ivfpq"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// loadFile reads the snapshot file at path and restores it with Load.
func loadFile(path string) (ann.Index, Header, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, Header{}, err
	}
	return Load(data)
}

// testData mirrors the PR 3 kernel-equivalence harness: seeded random
// components in [-1, 1], a zero vector in the mix (Angular's special
// case), dims including non-multiples of 4.
func testData(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, n)
	for i := range data {
		v := make(vec.Vector, dim)
		if i != n/2 { // row n/2 stays the zero vector
			for j := range v {
				v[j] = rng.Float32()*2 - 1
			}
		}
		data[i] = v
	}
	return data
}

func testQueries(n, dim int, seed int64) []vec.Vector {
	qs := testData(n, dim, seed)
	qs[0] = make(vec.Vector, dim) // zero query too
	return qs
}

// buildFamily constructs one small index per registry name. dim must be
// divisible by 4 for ivfpq (Segments: 4); the graph families accept any.
func buildFamily(t testing.TB, algo string, m vec.Metric, data []vec.Vector) ann.Index {
	t.Helper()
	var (
		idx ann.Index
		err error
	)
	switch algo {
	case "exact":
		idx = ann.NewExact(m, data)
	case "hnsw":
		idx, err = hnsw.Build(data, hnsw.Config{
			M: 6, EfConstruction: 40, EfSearch: 32, Metric: m, Seed: 3,
		})
	case "diskann":
		idx, err = vamana.Build(data, vamana.Config{
			R: 12, L: 32, LSearch: 32, Alpha: 1.2, Metric: m, Seed: 3,
		})
	case "hcnng":
		idx, err = hcnng.Build(data, hcnng.Config{
			Clusterings: 4, LeafSize: 16, MaxDegree: 12, LSearch: 32, Metric: m, Seed: 3,
		})
	case "togg":
		idx, err = togg.Build(data, togg.Config{
			K: 8, GuideDims: 4, GuideHops: 16, LSearch: 32, Metric: m, Seed: 3,
		})
	case "ivfpq":
		idx, err = ivfpq.Build(data, ivfpq.Config{
			NList: 8, NProbe: 4, Segments: 4, CodeBits: 5,
			Rerank: 16, KMeansIters: 4, Metric: m, Seed: 3,
		})
	default:
		t.Fatalf("unknown algo %q", algo)
	}
	if err != nil {
		t.Fatalf("build %s: %v", algo, err)
	}
	return idx
}

// metricsOf lists the metrics a family supports (ivfpq's ADC tables are
// Euclidean only).
func metricsOf(algo string) []vec.Metric {
	if algo == "ivfpq" {
		return []vec.Metric{vec.L2}
	}
	return []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct}
}

// requireSameResults asserts two result lists are bitwise identical.
func requireSameResults(t *testing.T, label string, got, want []ann.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID ||
			math.Float32bits(got[i].Dist) != math.Float32bits(want[i].Dist) {
			t.Fatalf("%s: result %d is %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// The acceptance property: for every family and metric, a loaded
// snapshot answers searches byte-identically to the in-memory build,
// across k values including over-asks.
func TestWarmStartSearchEquivalence(t *testing.T) {
	const n, dim = 220, 20
	queries := testQueries(12, dim, 99)
	for algo := range families {
		for _, m := range metricsOf(algo) {
			t.Run(algo+"/"+m.String(), func(t *testing.T) {
				built := buildFamily(t, algo, m, testData(n, dim, 7))
				var buf bytes.Buffer
				if _, err := Save(&buf, built, vec.F32); err != nil {
					t.Fatalf("save: %v", err)
				}
				loaded, _, err := Load(buf.Bytes())
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				if detected, _ := Detect(loaded); detected != algo {
					t.Fatalf("loaded type %T, want algo %s", loaded, algo)
				}
				if loaded.Len() != built.Len() {
					t.Fatalf("loaded Len %d, want %d", loaded.Len(), built.Len())
				}
				for qi, q := range queries {
					for _, k := range []int{1, 5, 17, n + 50} {
						label := t.Name()
						requireSameResults(t, label,
							loaded.Search(q, k), built.Search(q, k))
						_ = qi
					}
				}
			})
		}
	}
}

// Snapshots written with a quantized element kind (the at-rest kinds
// sift-1b/spacev-1b use) round-trip exactly when the corpus is
// quantized — and are rejected at save time when it is not, so a
// reload can never silently change distances.
func TestQuantizedElemKinds(t *testing.T) {
	const n, dim = 120, 16
	raw := testData(n, dim, 5)
	for _, kind := range []vec.ElemKind{vec.U8, vec.I8} {
		t.Run(kind.String(), func(t *testing.T) {
			built := buildFamily(t, "hnsw", vec.L2, toKind(kind, raw))
			var buf bytes.Buffer
			if _, err := Save(&buf, built, kind); err != nil {
				t.Fatalf("save quantized as %v: %v", kind, err)
			}
			loaded, _, err := Load(buf.Bytes())
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			q := vec.Quantize(kind, testQueries(1, dim, 8)[0])
			requireSameResults(t, kind.String(), loaded.Search(q, 10), built.Search(q, 10))

			// Unquantized corpus: the save must refuse the lossy kind.
			lossy := buildFamily(t, "exact", vec.L2, raw)
			if _, err := Save(&bytes.Buffer{}, lossy, kind); err == nil {
				t.Fatalf("saving unquantized data as %v must fail", kind)
			}
		})
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	data := testData(150, 12, 21)
	built := buildFamily(t, "diskann", vec.Angular, data)
	path := filepath.Join(t.TempDir(), "sub", "idx.ndx")
	_, crc, err := SaveFile(path, built, vec.F32)
	if err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := crc32.ChecksumIEEE(onDisk); got != crc {
		t.Fatalf("SaveFile reported CRC %08x, file hashes to %08x", crc, got)
	}
	loaded, _, err := Load(onDisk)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	q := testQueries(1, 12, 22)[0]
	requireSameResults(t, "file round trip", loaded.Search(q, 7), built.Search(q, 7))
}

// The header SaveFile reports is the one both readers parse back from
// the file — algo, metric, element kind, shape, and SQ8 mode — for
// every family, full-precision and quantized. The engine's loader holds
// each shard file's parsed header to shard 0's.
func TestSaveHeaderMatchesReaders(t *testing.T) {
	const n, dim, rerank = 120, 16, 24
	data := toKind(vec.U8, testData(n, dim, 17))
	for algo := range families {
		for _, quantized := range []bool{false, true} {
			if quantized && !slices.Contains(quantAlgos, algo) {
				continue
			}
			t.Run(fmt.Sprintf("%s/quantized=%v", algo, quantized), func(t *testing.T) {
				metrics := metricsOf(algo)
				m := metrics[len(metrics)-1]
				want := Header{Algo: algo, Metric: m, Elem: vec.U8, Dim: dim, Rows: n}
				var idx ann.Index
				if quantized {
					idx = buildQuantFamily(t, algo, m, data, rerank)
					want.Quantized, want.Rerank = true, rerank
				} else {
					idx = buildFamily(t, algo, m, data)
				}
				path := filepath.Join(t.TempDir(), "idx.ndx")
				wrote, _, err := SaveFile(path, idx, vec.U8)
				if err != nil {
					t.Fatalf("SaveFile: %v", err)
				}
				if wrote != want {
					t.Fatalf("SaveFile header %+v, want %+v", wrote, want)
				}
				if _, got, err := loadFile(path); err != nil || got != want {
					t.Fatalf("Load header %+v (err %v), want %+v", got, err, want)
				}
				paged, err := OpenPagedFile(path, PagedOptions{})
				if err != nil {
					t.Fatalf("OpenPagedFile: %v", err)
				}
				defer paged.Close()
				if got := paged.Header(); got != want {
					t.Fatalf("OpenPagedFile header %+v, want %+v", got, want)
				}
			})
		}
	}
}

// Loaded graph families keep serving the full ann.Index surface the
// engine shards need (traced search, graph view).
func TestLoadedIndexServesAnnInterface(t *testing.T) {
	data := testData(130, 10, 31)
	for _, algo := range []string{"exact", "hnsw", "diskann", "hcnng", "togg"} {
		built := buildFamily(t, algo, vec.L2, data)
		var buf bytes.Buffer
		if _, err := Save(&buf, built, vec.F32); err != nil {
			t.Fatalf("%s: save: %v", algo, err)
		}
		loaded, _, err := Load(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: load: %v", algo, err)
		}
		q := testQueries(1, 10, 32)[0]
		res, tr := loaded.SearchTraced(q, 5)
		requireSameResults(t, algo, res, built.Search(q, 5))
		wantRes, wantTr := built.SearchTraced(q, 5)
		requireSameResults(t, algo+" traced", res, wantRes)
		if len(tr.Iters) != len(wantTr.Iters) {
			t.Fatalf("%s: %d trace iters, want %d", algo, len(tr.Iters), len(wantTr.Iters))
		}
		if got := ann.CopyGraph(loaded.Store()).Len(); got != built.Len() {
			t.Fatalf("%s: graph len %d, want %d", algo, got, built.Len())
		}
	}
}
