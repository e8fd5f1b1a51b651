package engine

import (
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
)

// serveModes is every serving mode a directory loads in.
var serveModes = []string{ServeRAM, ServeMmap, ServeReadAt}

// saveShardSet builds a 2-shard engine of the given family over vecs and
// saves it (shard files in elem) to a fresh directory.
func saveShardSet(t testing.TB, algo string, m vec.Metric, vecs []vec.Vector, elem vec.ElemKind, opts IndexOpts) string {
	t.Helper()
	builder, err := BuilderWithOpts(algo, m, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(vecs, Config{Shards: 2, Workers: 2, Builder: builder, Meta: Meta{Seed: 9, Elem: elem}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// copyTree copies the regular files under src to dst, keeping their
// relative paths.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// readManifest decodes the manifest of dir's current generation.
func readManifest(t testing.TB, dir string) Manifest {
	t.Helper()
	blob, err := os.ReadFile(inCurrent(t, dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// writeManifest replaces the manifest of dir's current generation.
func writeManifest(t testing.TB, dir string, v any) {
	t.Helper()
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inCurrent(t, dir, ManifestName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A shard set is one save: a shard file taken from another save whose
// shards differ from this one's in one header field fails the load with
// ErrCorrupt naming that field, in every serving mode, even with the
// manifest's CRC (and row count) made to match the foreign file. The
// metric case is the one a manifest restating header fields never
// caught: it cannot express the metric, so an Angular shard ranked its
// distances among L2 ones.
func TestLoadRejectsForeignShard(t *testing.T) {
	const n = 400
	gen := func(p dataset.Profile) []vec.Vector {
		d, err := dataset.Generate(p, dataset.GenConfig{N: n, Queries: 1, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		return d.Vectors
	}
	sift, deep := gen(dataset.Sift1B()), gen(dataset.Deep1B())
	exactL2U8 := saveShardSet(t, "exact", vec.L2, sift, vec.U8, IndexOpts{})
	exactL2F32 := saveShardSet(t, "exact", vec.L2, sift, vec.F32, IndexOpts{})
	hnswPlain := saveShardSet(t, "hnsw", vec.L2, sift, vec.U8, IndexOpts{})
	hnswSQ8 := saveShardSet(t, "hnsw", vec.L2, sift, vec.U8, IndexOpts{Quantized: true, Rerank: 32})
	for _, c := range []struct {
		field         string
		base, foreign string
	}{
		{"metric", exactL2U8, saveShardSet(t, "exact", vec.Angular, sift, vec.U8, IndexOpts{})},
		{"dim", exactL2F32, saveShardSet(t, "exact", vec.L2, deep, vec.F32, IndexOpts{})},
		{"elem", exactL2U8, exactL2F32},
		{"algo", exactL2U8, hnswPlain},
		{"quantized", hnswPlain, hnswSQ8},
		{"rerank", hnswSQ8, saveShardSet(t, "hnsw", vec.L2, sift, vec.U8, IndexOpts{Quantized: true, Rerank: 16})},
	} {
		t.Run(c.field, func(t *testing.T) {
			dir := t.TempDir()
			copyTree(t, c.base, dir)
			foreign, err := os.ReadFile(inCurrent(t, c.foreign, shardFileName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(inCurrent(t, dir, shardFileName(1)), foreign, 0o644); err != nil {
				t.Fatal(err)
			}
			man := readManifest(t, dir)
			man.Files[1].CRC32 = crc32.ChecksumIEEE(foreign)
			writeManifest(t, dir, &man)
			for _, serve := range serveModes {
				e, _, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Serve: serve})
				if err == nil {
					e.Close()
				}
				if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), "file "+c.field+" ") {
					t.Fatalf("serve %s: err = %v, want ErrCorrupt naming %s", serve, err, c.field)
				}
			}
		})
	}
}

// parentManifest is the manifest layout before the shard headers became
// its only description: it restated the header fields (algo, elem_kind,
// quantized, rerank, dim), stored values the loader now derives
// (vectors, shards, bounds) and named every file.
type parentManifest struct {
	FormatVersion int          `json:"format_version"`
	Algo          string       `json:"algo"`
	Dataset       string       `json:"dataset,omitempty"`
	Seed          int64        `json:"seed"`
	ElemKind      uint8        `json:"elem_kind"`
	Quantized     bool         `json:"quantized,omitempty"`
	Rerank        int          `json:"rerank,omitempty"`
	Dim           int          `json:"dim"`
	Vectors       int          `json:"vectors"`
	Shards        int          `json:"shards"`
	Bounds        []int        `json:"bounds"`
	Generation    int          `json:"generation,omitempty"`
	Ids           []uint32     `json:"ids,omitempty"`
	Files         []parentFile `json:"files"`
}

// parentFile is a parent-layout file entry: a ShardFile with its name.
type parentFile struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	CRC32 uint32 `json:"crc32"`
}

// asParent restates man in the parent layout, every dropped key present
// with the value that layout recorded.
func asParent(man Manifest) parentManifest {
	h := man.Header
	p := parentManifest{
		FormatVersion: man.FormatVersion, Algo: h.Algo, Dataset: man.Dataset, Seed: man.Seed,
		ElemKind: uint8(h.Elem), Quantized: h.Quantized, Rerank: h.Rerank, Dim: h.Dim,
		Vectors: h.Rows, Shards: len(man.Files), Bounds: []int{0},
		Generation: man.Generation, Ids: man.Ids,
	}
	for i, f := range man.Files {
		p.Files = append(p.Files, parentFile{Name: shardFileName(i), Rows: f.Rows, CRC32: f.CRC32})
		p.Bounds = append(p.Bounds, p.Bounds[i]+f.Rows)
	}
	return p
}

// A manifest in the parent layout still loads, in every serving mode,
// and answers byte-identically to the engine that wrote the directory:
// the restated keys are ignored, not checked.
func TestLoadAcceptsParentManifest(t *testing.T) {
	e, d := buildQuantTestEngine(t, "hnsw", 3, 32)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	first, man, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	writeManifest(t, dir, asParent(*man))
	want, _ := e.SearchBatch(d.Queries, 10)
	for _, serve := range serveModes {
		loaded, got, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Serve: serve})
		if err != nil {
			t.Fatalf("serve %s: parent manifest: %v", serve, err)
		}
		if got.Header != man.Header {
			t.Fatalf("serve %s: header %+v, want %+v", serve, got.Header, man.Header)
		}
		res, _ := loaded.SearchBatch(d.Queries, 10)
		loaded.Close()
		sameNeighbors(t, "parent manifest, serve "+serve, res, want)
	}
}

// FuzzLoadManifest loads a saved 2-shard directory under every mutated
// manifest, RAM-resident and paged. The contract: an error, or a
// working engine whose shape the shard files' headers give — never a
// panic, and never an allocation sized from a manifest number no shard
// header has vouched for (a seed claims math.MaxInt rows for a real
// file, so the row total overflows too).
func FuzzLoadManifest(f *testing.F) {
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 200, Queries: 1, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	dir := saveShardSet(f, "exact", vec.L2, d.Vectors, vec.U8, IndexOpts{})
	blob, err := os.ReadFile(inCurrent(f, dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	e, loaded, err := Load(dir, 1)
	if err != nil {
		f.Fatal(err)
	}
	e.Close()
	man := *loaded
	seed := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(asParent(man))
	ids := make([]uint32, len(d.Vectors))
	for i := range ids {
		ids[i] = uint32(2 * i)
	}
	withIDs := man
	withIDs.Ids = ids
	seed(withIDs)
	huge := man
	huge.Files = []ShardFile{{Rows: math.MaxInt, CRC32: man.Files[0].CRC32}, man.Files[1]}
	seed(huge)
	manPath := inCurrent(f, dir, ManifestName)
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(manPath, in, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, serve := range []string{ServeRAM, ServeReadAt} {
			e, got, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Serve: serve})
			if err != nil {
				continue
			}
			// A manifest may name fewer files than the directory holds
			// (a paged load reads no whole-file CRC), so the engine may
			// serve a prefix of the shards; whatever it serves, the
			// files' headers describe.
			want := loaded.Header
			want.Rows = got.Header.Rows
			if got.Header != want || e.Len() != want.Rows || want.Rows > len(d.Vectors) {
				t.Fatalf("serve %s: loaded %d rows, header %+v; the files hold %d, header %+v",
					serve, e.Len(), got.Header, len(d.Vectors), loaded.Header)
			}
			if res := e.Search(d.Queries[0], 5); len(res) != 5 {
				t.Fatalf("serve %s: search returned %d results, want 5", serve, len(res))
			}
			e.Close()
		}
	})
}
