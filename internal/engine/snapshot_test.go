package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/snapshot"
)

// buildTestEngine builds a small sharded engine over a generated corpus
// and returns it with the dataset (for queries and ground truth).
func buildTestEngine(t *testing.T, algo string, shards int) (*Engine, *dataset.Dataset) {
	t.Helper()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 600, Queries: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	builder, err := BuilderByName(algo, prof.Metric, 9)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{
		Shards: shards, Workers: 4, Builder: builder,
		Meta: Meta{Algo: algo, Dataset: prof.Name, Seed: 9, Elem: prof.Elem},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d
}

// inCurrent resolves name inside the generation directory dir's CURRENT
// names.
func inCurrent(t testing.TB, dir, name string) string {
	t.Helper()
	gen, ok, err := snapshot.ReadCurrent(dir)
	if err != nil || !ok {
		t.Fatalf("CURRENT in %s: ok=%v err=%v", dir, ok, err)
	}
	return filepath.Join(dir, gen, name)
}

// The engine-level acceptance property: a reloaded engine's SearchBatch
// is byte-identical to the engine it was saved from, for every
// registered shard algorithm.
func TestEngineSaveLoadRoundTrip(t *testing.T) {
	for _, algo := range []string{"exact", "hnsw", "diskann", "ivfpq"} {
		t.Run(algo, func(t *testing.T) {
			e, d := buildTestEngine(t, algo, 3)
			dir := t.TempDir()
			if err := e.Save(dir); err != nil {
				t.Fatalf("save: %v", err)
			}
			loaded, man, err := Load(dir, 4)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			t.Cleanup(loaded.Close)
			// A directory that already holds a snapshot is refused, and
			// still loads afterwards.
			if err := loaded.Save(dir); !errors.Is(err, fs.ErrExist) {
				t.Fatalf("save over a snapshot: err = %v, want fs.ErrExist", err)
			}
			if again, _, err := Load(dir, 4); err != nil {
				t.Fatalf("load after a refused save: %v", err)
			} else {
				again.Close()
			}
			if man.Dataset != d.Profile.Name || man.Seed != 9 {
				t.Fatalf("manifest provenance %+v", man)
			}
			wantHeader := snapshot.Header{Algo: algo, Metric: d.Profile.Metric, Elem: d.Profile.Elem, Dim: d.Profile.Dim, Rows: 600}
			if man.Header != wantHeader || loaded.Shards() != 3 {
				t.Fatalf("loaded header %+v over %d shards, want %+v over 3", man.Header, loaded.Shards(), wantHeader)
			}
			// Re-saving a loaded engine keeps the at-rest element kind.
			dir2 := t.TempDir()
			if err := loaded.Save(dir2); err != nil {
				t.Fatalf("re-save: %v", err)
			}
			resaved, man2, err := Load(dir2, 2)
			if err != nil {
				t.Fatalf("re-load: %v", err)
			}
			t.Cleanup(resaved.Close)
			if man2.Header.Elem != man.Header.Elem {
				t.Fatalf("re-save switched elem kind %v -> %v", man.Header.Elem, man2.Header.Elem)
			}
			// The re-save is byte-identical to the first save, manifest
			// and every shard file: a built and a loaded engine record
			// the same manifest from the same shard-file headers.
			names := []string{ManifestName}
			for i := range man.Files {
				names = append(names, shardFileName(i))
			}
			for _, name := range names {
				first, err := os.ReadFile(inCurrent(t, dir, name))
				if err != nil {
					t.Fatal(err)
				}
				second, err := os.ReadFile(inCurrent(t, dir2, name))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(first, second) {
					t.Fatalf("re-saved %s differs from the first save (%d vs %d bytes)", name, len(second), len(first))
				}
			}
			if loaded.Len() != e.Len() || loaded.Shards() != e.Shards() || loaded.Dim() != e.Dim() {
				t.Fatalf("loaded engine shape: len=%d shards=%d dim=%d", loaded.Len(), loaded.Shards(), loaded.Dim())
			}
			want, _ := e.SearchBatch(d.Queries, 10)
			got, _ := loaded.SearchBatch(d.Queries, 10)
			if len(got) != len(want) {
				t.Fatalf("%d result lists, want %d", len(got), len(want))
			}
			for qi := range want {
				if len(got[qi]) != len(want[qi]) {
					t.Fatalf("query %d: %d results, want %d", qi, len(got[qi]), len(want[qi]))
				}
				for i := range want[qi] {
					g, w := got[qi][i], want[qi][i]
					if g.ID != w.ID || math.Float32bits(g.Dist) != math.Float32bits(w.Dist) {
						t.Fatalf("query %d result %d: got %+v, want %+v", qi, i, g, w)
					}
				}
			}
		})
	}
}

// Saved manifests carry per-file checksums; damage to a shard file is
// caught before decoding, and a manifest row count or format version
// the files contradict fails loudly.
func TestEngineLoadRejectsDamage(t *testing.T) {
	e, _ := buildTestEngine(t, "exact", 2)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}

	// Flip one byte of a shard file: the manifest CRC must catch it.
	shardPath := inCurrent(t, dir, "shard-0001.ndx")
	data, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(shardPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir, 2); !errors.Is(err, snapshot.ErrChecksum) {
		t.Fatalf("damaged shard file: err = %v, want ErrChecksum", err)
	}

	// Restore the file but misstate its row count: the shard header
	// disagrees.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(shardPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	manPath := inCurrent(t, dir, ManifestName)
	blob, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	man.Files[1].Rows++
	mutated, _ := json.Marshal(&man)
	if err := os.WriteFile(manPath, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir, 2); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("manifest rows mismatch: err = %v, want ErrCorrupt", err)
	}
	man.Files[1].Rows--

	// Any manifest format version but the current one is refused up
	// front: a future one, and a past one.
	for _, v := range []int{snapshot.FormatVersion + 1, snapshot.FormatVersion - 1} {
		man.FormatVersion = v
		mutated, _ = json.Marshal(&man)
		if err := os.WriteFile(manPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(dir, 2); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("manifest version %d: err = %v, want ErrVersion", v, err)
		}
	}
	man.FormatVersion = snapshot.FormatVersion

	// Missing directory.
	if _, _, err := Load(filepath.Join(dir, "nope"), 2); err == nil {
		t.Fatal("missing directory must fail")
	}

	// A directory without CURRENT is not a snapshot: not found, with the
	// way to write one.
	if err := os.Remove(filepath.Join(dir, snapshot.CurrentName)); err != nil {
		t.Fatal(err)
	}
	_, _, err = Load(dir, 2)
	if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "-save-index") {
		t.Fatalf("no CURRENT: err = %v, want fs.ErrNotExist naming -save-index", err)
	}
}

// Save without caller-supplied Meta still produces a loadable directory
// (each shard file records its algo, detected from the shard type).
func TestEngineSaveDetectsAlgo(t *testing.T) {
	prof := dataset.Glove100()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 200, Queries: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	builder, _ := BuilderByName("hnsw", prof.Metric, 1)
	e, err := New(d.Vectors, Config{Shards: 2, Workers: 2, Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, man, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loaded.Close)
	if man.Header.Algo != "hnsw" {
		t.Fatalf("detected algo %q, want hnsw", man.Header.Algo)
	}
	// A Meta.Algo that contradicts the shard type is a caller bug and
	// must fail at save time, not as ErrCorrupt on every future load.
	wrong, err := New(d.Vectors, Config{
		Shards: 2, Workers: 2, Builder: builder, Meta: Meta{Algo: "exact"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(wrong.Close)
	if err := wrong.Save(t.TempDir()); err == nil {
		t.Fatal("Meta.Algo mismatching the shard type must fail Save")
	}
	q := d.Queries[0]
	if got, want := loaded.Search(q, 5), e.Search(q, 5); len(got) != len(want) {
		t.Fatalf("loaded search returned %d results, want %d", len(got), len(want))
	}
}
