package snapshot

import (
	"bytes"
	"errors"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/vec"
)

// FuzzLoadQuantized drives both snapshot entry points with every
// mutated input: Load over the bytes and OpenPagedFile over the same
// bytes written to a temp file. Seeds are valid saves: for every graph
// family a quantized file (blocks + sq8s sections), a full-precision one
// (blocks, no sq8s), and the quantized one labelled as a past version;
// plus the flat-family files (blocks records without neighbor slots).
// (The name predates the paged entry point; it covers the whole reader
// now.) The contract under test is the package's error discipline, the
// same for both: success or one of the six typed errors — never a
// panic, never an undiscriminated error. Each index either entry point
// opens runs one search, so a paged traversal, flat scan or re-rank
// over damaged records runs too.
func FuzzLoadQuantized(f *testing.F) {
	data := testData(60, 8, 17)
	for _, algo := range quantAlgos {
		var buf bytes.Buffer
		if _, err := Save(&buf, buildQuantFamily(f, algo, vec.L2, data, 16), vec.F32); err != nil {
			f.Fatalf("seed save %s: %v", algo, err)
		}
		f.Add(buf.Bytes())
		var plain bytes.Buffer
		if _, err := Save(&plain, buildFamily(f, algo, vec.L2, data), vec.F32); err != nil {
			f.Fatalf("seed save %s: %v", algo, err)
		}
		f.Add(plain.Bytes())
		f.Add(withVersion(buf.Bytes(), 2))
	}
	f.Add(snapshotOf(f, "ivfpq"))
	f.Add([]byte{})
	f.Add([]byte("NDSS"))
	f.Add(snapshotOf(f, "exact"))

	typed := []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrCorrupt, ErrMisaligned}
	requireTyped := func(t *testing.T, entry string, err error, allowed []error) {
		for _, want := range allowed {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("%s returned untyped error: %v", entry, err)
	}
	search := func(idx ann.Index) {
		_ = idx.Search(make(vec.Vector, idx.Store().Dim()), 5)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		idx, err := loadBytes(t, "Load", in)
		if err == nil && idx == nil {
			t.Fatal("Load returned nil index and nil error")
		}
		if err != nil {
			requireTyped(t, "Load", err, typed)
		} else {
			search(idx)
		}
		pi, err := openPagedBytes(t, "OpenPagedFile", in)
		if err != nil {
			requireTyped(t, "OpenPagedFile", err, typed)
			return
		}
		defer pi.Close()
		search(pi.Index())
	})
}
