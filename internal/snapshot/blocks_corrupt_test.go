package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// sectionFrame walks a file image's section frames and returns the named
// frame's CRC-field offset and payload bounds.
func sectionFrame(t *testing.T, img []byte, name string) (crcOff, payloadOff, payloadLen int) {
	t.Helper()
	off := headerSize
	for {
		nameLen := int(img[off])
		off++
		if nameLen == 0 {
			t.Fatalf("no %s section in image", name)
		}
		got := string(img[off : off+nameLen])
		off += nameLen
		plen := int(binary.LittleEndian.Uint64(img[off:]))
		crc := off + 8
		payload := crc + 4
		if got == name {
			return crc, payload, plen
		}
		off = payload + plen
	}
}

// resealFrame recomputes the named frame's CRC after a payload edit, so
// the damage under test is the structural one, not the checksum.
func resealFrame(t *testing.T, img []byte, name string) {
	t.Helper()
	crcOff, payloadOff, payloadLen := sectionFrame(t, img, name)
	binary.LittleEndian.PutUint32(img[crcOff:], sectionCRC(name, img[payloadOff:payloadOff+payloadLen]))
}

// patchBlocksMeta returns a copy of img with the blocks meta mutated.
// refreshMetaCRC recomputes the meta's own CRC after the mutation; the
// section frame CRC is always recomputed, so the mutation is what the
// loader sees (not a checksum failure), unless refreshMetaCRC is false —
// that mode specifically tests the meta CRC.
func patchBlocksMeta(t *testing.T, img []byte, refreshMetaCRC bool, mutate func(meta []byte)) []byte {
	t.Helper()
	out := append([]byte(nil), img...)
	_, payloadOff, _ := sectionFrame(t, out, "blocks")
	meta := out[payloadOff : payloadOff+blockMetaSize]
	mutate(meta)
	if refreshMetaCRC {
		binary.LittleEndian.PutUint32(meta[blockMetaSize-4:], crc32.ChecksumIEEE(meta[:blockMetaSize-4]))
	}
	resealFrame(t, out, "blocks")
	return out
}

// openPagedBytes writes the image to a temp file and opens it paged,
// converting any panic into a test failure (same contract as loadBytes:
// corruption is typed errors, never panics).
func openPagedBytes(t *testing.T, label string, img []byte) (pi *PagedIndex, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: OpenPagedFile panicked: %v", label, r)
		}
	}()
	path := filepath.Join(t.TempDir(), "corrupt.ndss")
	if werr := os.WriteFile(path, img, 0o644); werr != nil {
		t.Fatal(werr)
	}
	return OpenPagedFile(path, PagedOptions{CachePages: 2})
}

// Version-3 block-section corruption yields the same distinct typed
// errors on both serving paths: truncated block section, misaligned
// image offset, bad meta CRC, and bad navigation-section CRC are each
// discriminated, and none panics.
func TestV3BlocksCorruptionTypedErrors(t *testing.T) {
	for _, algo := range graphAlgos {
		t.Run(algo, func(t *testing.T) {
			good := snapshotOf(t, algo)
			if _, err := loadBytes(t, "pristine", good); err != nil {
				t.Fatalf("pristine v3 load: %v", err)
			}
			if pi, err := openPagedBytes(t, "pristine", good); err != nil {
				t.Fatalf("pristine v3 paged open: %v", err)
			} else {
				pi.Close()
			}

			check := func(label string, img []byte, want error) {
				t.Helper()
				if _, err := loadBytes(t, label, img); !errors.Is(err, want) {
					t.Errorf("%s: RAM load err = %v, want %v", label, err, want)
				}
				pi, err := openPagedBytes(t, label, img)
				if err == nil {
					pi.Close()
				}
				if !errors.Is(err, want) {
					t.Errorf("%s: paged open err = %v, want %v", label, err, want)
				}
			}

			// Truncation inside the node image (the terminator and part of
			// the image are gone).
			check("truncated blocks", good[:len(good)-basePageSize/2], ErrTruncated)

			// Misaligned image offset. Shifting imageOff off the page
			// boundary (shrinking imageLen so the payload geometry still
			// adds up) is caught by the alignment check, not a generic
			// corruption error.
			check("misaligned image", patchBlocksMeta(t, good, true, func(meta []byte) {
				binary.LittleEndian.PutUint32(meta[25:], binary.LittleEndian.Uint32(meta[25:])+1) // low word of imageOff
				binary.LittleEndian.PutUint32(meta[33:], binary.LittleEndian.Uint32(meta[33:])-1) // low word of imageLen
			}), ErrMisaligned)

			// Meta damage under a stale meta CRC: the self-checksum catches
			// it even though the section frame CRC was refreshed (the paged
			// opener never checksums the whole payload).
			check("bad meta CRC", patchBlocksMeta(t, good, false, func(meta []byte) {
				binary.LittleEndian.PutUint32(meta[12:], binary.LittleEndian.Uint32(meta[12:])+1) // n
			}), ErrChecksum)

			// Navigation-section damage (first byte of the pinned "params"
			// payload) fails that section's CRC on both paths.
			bad := append([]byte(nil), good...)
			_, params, _ := sectionFrame(t, bad, "params")
			bad[params] ^= 0xFF
			check("bad nav CRC", bad, ErrChecksum)
		})
	}
}

// Image damage past the meta is the one corruption class the paged
// opener cannot see up front (checksumming the image would defeat
// beyond-RAM serving): the open succeeds and searches degrade
// defensively — clamped degrees, skipped out-of-range neighbors — but
// never panic. The RAM loader, which always checksums whole sections,
// still reports ErrChecksum for the same bytes.
func TestV3ImageDamageServesDefensively(t *testing.T) {
	good := snapshotOf(t, "hnsw")
	_, payloadOff, payloadLen := sectionFrame(t, good, "blocks")
	bad := append([]byte(nil), good...)
	// Flip a degree field deep in the image: a huge degree must clamp,
	// not walk out of the record.
	bad[payloadOff+payloadLen-basePageSize] ^= 0xFF

	if _, err := loadBytes(t, "image flip", bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("RAM load of image-damaged file: err = %v, want ErrChecksum", err)
	}
	pi, err := openPagedBytes(t, "image flip", bad)
	if err != nil {
		t.Fatalf("paged open of image-damaged file: %v", err)
	}
	defer pi.Close()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("search over damaged image panicked: %v", r)
		}
	}()
	for _, q := range testQueries(4, 8, 23) {
		_ = pi.Index().Search(q, 5)
	}
}

// The flat families write their corpus as blocks records too: no
// "matrix" section, a blocks section whose records carry no neighbor
// slots (maxDegree 0) and no SQ8 codes, searches identical to the built
// index, and a re-save of the loaded index equal byte for byte. A flat
// file whose records do carry adjacency or SQ8 codes is refused as
// ErrCorrupt by both entry points.
func TestV3FlatFamiliesRoundTrip(t *testing.T) {
	data := toKind(vec.U8, testData(60, 8, 9))
	for _, algo := range []string{"exact", "ivfpq"} {
		built := buildFamily(t, algo, metricsOf(algo)[0], data)
		var buf bytes.Buffer
		if _, err := Save(&buf, built, vec.U8); err != nil {
			t.Fatalf("save %s: %v", algo, err)
		}
		f, err := parse(image(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("parse %s: %v", algo, err)
		}
		if _, ok := f.sections["matrix"]; ok {
			t.Errorf("%s: file carries a matrix section", algo)
		}
		if f.blocks == nil {
			t.Fatalf("%s: file has no blocks section", algo)
		}
		if m := f.blocks.meta; m.maxDegree != 0 || m.quantized || m.n != len(data) {
			t.Errorf("%s: blocks meta maxDegree=%d quantized=%v n=%d, want 0/false/%d",
				algo, m.maxDegree, m.quantized, m.n, len(data))
		}
		loaded, _, err := Load(buf.Bytes())
		if err != nil {
			t.Fatalf("load %s: %v", algo, err)
		}
		for _, q := range testQueries(4, 8, 31) {
			requireSameResults(t, algo, loaded.Search(q, 7), built.Search(q, 7))
		}
		var again bytes.Buffer
		if _, err := Save(&again, loaded, vec.U8); err != nil {
			t.Fatalf("re-save %s: %v", algo, err)
		}
		if !bytes.Equal(again.Bytes(), buf.Bytes()) {
			t.Errorf("%s: re-saved file differs from the first save", algo)
		}
	}

	// Flat files whose records carry a graph's adjacency or SQ8 codes
	// (with the "sq8s" section codes require, so the flat-record rule is
	// what refuses them).
	flat := testData(40, 8, 2)
	for _, algo := range []string{"exact", "ivfpq"} {
		built := buildFamily(t, algo, vec.L2, flat)
		for _, codes := range []bool{false, true} {
			label := algo + " records with adjacency"
			mat, g := vec.NewMatrix(flat), graph.New(len(flat))
			h := Header{Algo: algo, Metric: vec.L2, Elem: vec.F32, Dim: mat.Dim(), Rows: mat.Rows()}
			b := &builder{}
			b.add("algo", []byte(algo))
			if _, err := families[algo].save(built, b); err != nil {
				t.Fatal(err)
			}
			if codes {
				label = algo + " records with SQ8 codes"
				mat.EnableSQ8()
				if err := addSQ8Scales(b, mat, 0); err != nil {
					t.Fatal(err)
				}
			} else {
				g.SetNeighbors(0, []uint32{1})
			}
			if err := addBlocks(b, h, mat, g, vec.F32); err != nil {
				t.Fatal(err)
			}
			img := b.assemble(h)
			refused := func(entry string, err error) {
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "graph records") {
					t.Errorf("%s: %s: err = %v, want ErrCorrupt from the flat-record rule", label, entry, err)
				}
			}
			_, err := loadBytes(t, label, img)
			refused("Load", err)
			pi, err := openPagedBytes(t, label, img)
			if err == nil {
				pi.Close()
			}
			refused("OpenPagedFile", err)
		}
	}
}
