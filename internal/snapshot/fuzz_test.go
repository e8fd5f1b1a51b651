package snapshot

import (
	"bytes"
	"errors"
	"testing"

	"ndsearch/internal/vec"
)

// FuzzLoadQuantized drives both snapshot entry points with every
// mutated input: Load over the bytes and OpenPagedFile over the same
// bytes written to a temp file. Seeds come from valid saves across the
// format's whole version range: current version-3 files (page-aligned
// blocks) for every graph family, quantized and full-precision, plus
// genuine version-1/2 images (flat matrix + graph sections) so the
// legacy decoders stay inside the fuzzer's input space. (The name
// predates the paged entry point; it covers the whole reader now.) The
// contract under test is the package's error discipline, the same for
// both: success or one of the six typed errors — never a panic, never
// an undiscriminated error. OpenPagedFile may also refuse an intact flat
// family as ErrUnsupported.
func FuzzLoadQuantized(f *testing.F) {
	data := testData(60, 8, 17)
	for _, algo := range quantAlgos {
		// Version-3 quantized seed (blocks + sq8s sections).
		var buf bytes.Buffer
		if err := Save(&buf, buildQuantFamily(f, algo, vec.L2, data, 16), vec.F32); err != nil {
			f.Fatalf("seed save %s: %v", algo, err)
		}
		f.Add(buf.Bytes())
		// Legacy seeds: v1 full-precision and v2 quantized (sq8 section).
		f.Add(saveLegacy(f, buildFamily(f, algo, vec.L2, data), 1))
		f.Add(saveLegacy(f, buildQuantFamily(f, algo, vec.L2, data, 16), 2))
	}
	f.Add(snapshotOf(f, "hnsw")) // full-precision v3 seed: blocks, no sq8s
	f.Add([]byte{})
	f.Add([]byte("NDSS"))

	typed := []error{ErrBadMagic, ErrVersion, ErrChecksum, ErrTruncated, ErrCorrupt, ErrMisaligned}
	requireTyped := func(t *testing.T, entry string, err error, allowed []error) {
		for _, want := range allowed {
			if errors.Is(err, want) {
				return
			}
		}
		t.Fatalf("%s returned untyped error: %v", entry, err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		idx, err := loadBytes(t, "Load", in)
		if err == nil && idx == nil {
			t.Fatal("Load returned nil index and nil error")
		}
		if err != nil {
			requireTyped(t, "Load", err, typed)
		}
		pi, err := openPagedBytes(t, "OpenPagedFile", in)
		if err != nil {
			requireTyped(t, "OpenPagedFile", err, append(typed, ErrUnsupported))
			return
		}
		pi.Close()
	})
}
