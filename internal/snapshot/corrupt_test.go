package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// snapshotOf serialises one small index per family.
func snapshotOf(t testing.TB, algo string) []byte {
	t.Helper()
	built := buildFamily(t, algo, metricsOf(algo)[0], testData(80, 8, 17))
	var buf bytes.Buffer
	if _, err := Save(&buf, built, vec.F32); err != nil {
		t.Fatalf("save %s: %v", algo, err)
	}
	return buf.Bytes()
}

// withVersion returns a copy of img relabelled as container version v
// with its header CRC recomputed, so the version is all that differs.
func withVersion(img []byte, v uint16) []byte {
	out := append([]byte(nil), img...)
	binary.LittleEndian.PutUint16(out[4:6], v)
	binary.LittleEndian.PutUint32(out[20:24], crc32.ChecksumIEEE(out[:20]))
	return out
}

// loadBytes runs Load and converts any panic into a test failure — the
// contract is that corruption surfaces as a typed error, never a panic.
func loadBytes(t *testing.T, label string, data []byte) (idx ann.Index, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: Load panicked: %v", label, r)
		}
	}()
	idx, _, err = Load(data)
	return idx, err
}

// The corruption table: truncated file, flipped byte, wrong magic, and
// past or future format version each produce their own typed error, for
// every index family. Frame-level damage is caught by the one walker both
// entry points share, before it matters which family or serving mode
// the file is for, so Load and OpenPagedFile must report the same
// sentinel for it.
func TestCorruptionTypedErrors(t *testing.T) {
	for algo := range families {
		t.Run(algo, func(t *testing.T) {
			good := snapshotOf(t, algo)
			if _, err := loadBytes(t, "pristine", good); err != nil {
				t.Fatalf("pristine snapshot failed to load: %v", err)
			}
			check := func(label string, img []byte, want error) {
				t.Helper()
				if _, err := loadBytes(t, label, img); !errors.Is(err, want) {
					t.Errorf("%s: Load err = %v, want %v", label, err, want)
				}
				pi, err := openPagedBytes(t, label, img)
				if err == nil {
					pi.Close()
				}
				if !errors.Is(err, want) {
					t.Errorf("%s: OpenPagedFile err = %v, want %v", label, err, want)
				}
			}

			// Wrong magic.
			bad := append([]byte(nil), good...)
			bad[0] = 'X'
			check("wrong magic", bad, ErrBadMagic)

			// Future format version (checked before the header CRC, so a
			// genuinely newer file reports its version rather than a
			// checksum failure).
			bad = append([]byte(nil), good...)
			binary.LittleEndian.PutUint16(bad[4:6], FormatVersion+1)
			check("future version", bad, ErrVersion)
			// Past versions, under a valid header CRC: their decoders are
			// gone, so this build refuses them by version.
			for _, v := range []uint16{1, 2, 3} {
				check(fmt.Sprintf("past version %d", v), withVersion(good, v), ErrVersion)
			}

			// Truncations at every structural boundary class: inside the
			// magic, inside the header, at the first section frame, mid
			// payload, and just before the terminator.
			for _, cut := range []int{0, 3, 10, headerSize, headerSize + 3, len(good) / 2, len(good) - 1} {
				check(fmt.Sprintf("truncated at %d", cut), good[:cut], ErrTruncated)
			}

			// Flipped byte in a section payload (the first byte of the
			// "algo" payload, at a deterministic offset).
			algoPayload := headerSize + 1 + len("algo") + 8 + 4
			bad = append([]byte(nil), good...)
			bad[algoPayload] ^= 0xFF
			check("flipped algo payload byte", bad, ErrChecksum)
			// And deep in the file (structure payloads). For a graph
			// family that is the node image, which only Load checksums.
			bad = append([]byte(nil), good...)
			bad[len(bad)*3/4] ^= 0x40
			if _, err := loadBytes(t, "flip deep", bad); !errors.Is(err, ErrChecksum) {
				t.Errorf("flipped deep byte: err = %v, want ErrChecksum", err)
			}
			// Flipped header byte (after magic/version): the header CRC
			// catches it.
			bad = append([]byte(nil), good...)
			bad[8] ^= 0xFF // low byte of dim
			check("flipped header byte", bad, ErrChecksum)
		})
	}
}

// TestLegacyCompatMatrix is the version compatibility matrix: this build
// reads exactly FormatVersion. For every family, and every quantized
// graph family, a current file serves searches identically to the built
// index, while the same bytes labelled as a past version fail with
// ErrVersion instead of being decoded as something they are not.
func TestLegacyCompatMatrix(t *testing.T) {
	data := testData(90, 8, 17)
	q := testQueries(3, 8, 18)
	check := func(t *testing.T, built ann.Index) ann.Index {
		t.Helper()
		var cur bytes.Buffer
		if _, err := Save(&cur, built, vec.F32); err != nil {
			t.Fatalf("save: %v", err)
		}
		loaded, err := loadBytes(t, "current", cur.Bytes())
		if err != nil {
			t.Fatalf("load v%d: %v", FormatVersion, err)
		}
		for _, qu := range q {
			for _, k := range []int{1, 7, 23} {
				requireSameResults(t, "current", loaded.Search(qu, k), built.Search(qu, k))
			}
		}
		for _, v := range []uint16{1, 2, 3} {
			if _, err := loadBytes(t, "past", withVersion(cur.Bytes(), v)); !errors.Is(err, ErrVersion) {
				t.Errorf("load as v%d: err = %v, want ErrVersion", v, err)
			}
		}
		return loaded
	}
	for algo := range families {
		t.Run(algo, func(t *testing.T) {
			check(t, buildFamily(t, algo, metricsOf(algo)[0], data))
		})
	}
	// The quantized column: the files that were version 2 before the
	// blocks layout.
	for _, algo := range quantAlgos {
		t.Run(algo+"/quantized-v2", func(t *testing.T) {
			loaded := check(t, buildQuantFamily(t, algo, vec.L2, data, 12))
			if quantized, rerank, _ := quantParams(t, loaded); !quantized || rerank != 12 {
				t.Fatalf("loaded params quantized=%v rerank=%d, want true/12", quantized, rerank)
			}
		})
	}
}

// A sweep over every region of the file: any single flipped byte must
// yield a typed error (or, for frame-field flips that happen to keep
// the file parseable, at minimum never a panic and never a silently
// different index).
func TestCorruptionFlipSweepNeverPanics(t *testing.T) {
	good := snapshotOf(t, "hnsw")
	want, _, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	q := testQueries(1, 8, 41)[0]
	wantRes := want.Search(q, 5)
	step := len(good)/257 + 1
	for off := 0; off < len(good); off += step {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x55
		idx, err := loadBytes(t, "sweep", bad)
		if err == nil {
			// The only flips that can legally load are ones the CRCs do
			// not cover (stored CRC bytes themselves can't match, frame
			// lengths break parsing) — so a successful load here means
			// the flip was semantically neutral; results must not drift.
			requireSameResults(t, "sweep survivor", idx.Search(q, 5), wantRes)
			t.Errorf("offset %d: flipped byte loaded successfully", off)
		}
		var typed bool
		for _, sentinel := range []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrCorrupt, ErrMisaligned} {
			if errors.Is(err, sentinel) {
				typed = true
				break
			}
		}
		if err != nil && !typed {
			t.Errorf("offset %d: untyped error %v", off, err)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	for label, data := range map[string][]byte{
		"empty":     {},
		"one byte":  {'N'},
		"not magic": []byte("this is not a snapshot file at all"),
	} {
		_, err := loadBytes(t, label, data)
		pi, perr := openPagedBytes(t, label, data)
		if perr == nil {
			pi.Close()
		}
		for _, got := range []error{err, perr} {
			if !errors.Is(got, ErrBadMagic) && !errors.Is(got, ErrTruncated) {
				t.Errorf("%s: err = %v, want ErrBadMagic or ErrTruncated", label, got)
			}
		}
		if errors.Is(err, ErrBadMagic) != errors.Is(perr, ErrBadMagic) {
			t.Errorf("%s: Load err = %v, OpenPagedFile err = %v, want the same sentinel", label, err, perr)
		}
	}
}

// Unknown algo behind valid checksums is structural corruption: the
// file is a well-formed exact snapshot in every other respect.
func TestLoadRejectsUnknownAlgo(t *testing.T) {
	built := buildFamily(t, "exact", vec.L2, testData(40, 8, 2))
	mat := built.Store().(*ann.KernelStore).Matrix()
	h := Header{Metric: vec.L2, Elem: vec.F32, Dim: mat.Dim(), Rows: mat.Rows()}
	b := &builder{}
	b.add("algo", []byte("flux-capacitor"))
	if err := addBlocks(b, h, mat, graph.New(mat.Rows()), vec.F32); err != nil {
		t.Fatal(err)
	}
	data := b.assemble(h)
	if _, err := loadBytes(t, "unknown algo", data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown algo: err = %v, want ErrCorrupt", err)
	}
}
