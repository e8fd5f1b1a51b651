package engine

import (
	"math"
	"reflect"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/snapshot"
)

// sameNeighbors asserts two engine result lists are bitwise identical.
func sameNeighbors(t *testing.T, label string, got, want [][]ann.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result lists, want %d", label, len(got), len(want))
	}
	for qi := range want {
		if len(got[qi]) != len(want[qi]) {
			t.Fatalf("%s: query %d: %d results, want %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			g, w := got[qi][i], want[qi][i]
			if g.ID != w.ID || math.Float32bits(g.Dist) != math.Float32bits(w.Dist) {
				t.Fatalf("%s: query %d result %d is %+v, want %+v", label, qi, i, g, w)
			}
		}
	}
}

// applyWrites lands one fixed write script on e: new IDs upserted next
// to the queries, base IDs overwritten, a delta entry overwritten, base
// IDs deleted (among them the pure-read top hits, so the tombstone
// filter decides results), and a delta-only ID deleted.
func applyWrites(t *testing.T, e *Engine, d *dataset.Dataset, pureRead [][]ann.Neighbor) {
	t.Helper()
	n := uint32(len(d.Vectors))
	upsert := func(id uint32, v []float32) {
		t.Helper()
		if err := e.Upsert(id, v); err != nil {
			t.Fatalf("upsert %d: %v", id, err)
		}
	}
	for i := 0; i < 4; i++ {
		upsert(n+uint32(i), d.Queries[i])
		upsert(uint32(150*i), d.Queries[4+i])
	}
	upsert(n+1, d.Vectors[5])
	dels := []uint32{1, 2, 3, n + 2}
	for _, res := range pureRead[4:] {
		dels = append(dels, res[0].ID)
	}
	for _, id := range dels {
		if _, err := e.Delete(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
}

// The engine-level beyond-RAM property: an engine loaded with a paged
// serving mode answers SearchBatch byte-identically to the RAM load of
// the same snapshot directory, for two graph shard algorithms and both
// flat ones (a paged exact shard scans its records, a paged ivfpq shard
// reads them to re-rank) on both backends, while the page counters
// advance under the configured budget.
// The same holds after the same writes land on every engine: the delta
// merges over a paged base exactly as over a resident one. A paged
// engine cannot compact; Compact fails without touching the generation,
// the counters, or the directory, and the delta keeps serving.
func TestEnginePagedServingByteIdentity(t *testing.T) {
	for _, algo := range []string{"hnsw", "diskann", "exact", "ivfpq"} {
		t.Run(algo, func(t *testing.T) {
			e, d := buildTestEngine(t, algo, 3)
			dir := t.TempDir()
			if err := e.Save(dir); err != nil {
				t.Fatalf("save: %v", err)
			}
			ram, _, err := Load(dir, 4)
			if err != nil {
				t.Fatalf("ram load: %v", err)
			}
			t.Cleanup(ram.Close)
			if ram.ServeMode() != ServeRAM {
				t.Fatalf("ram load serve mode %q", ram.ServeMode())
			}
			if _, ok := ram.PageStats(); ok {
				t.Fatal("RAM engine reports page stats")
			}
			want, _ := ram.SearchBatch(d.Queries, 10)
			applyWrites(t, ram, d, want)
			wantMut, _ := ram.SearchBatch(d.Queries, 10)
			if reflect.DeepEqual(wantMut, want) {
				t.Fatal("the write script changed no result")
			}

			for _, mode := range []string{ServeMmap, ServeReadAt} {
				paged, man, err := LoadWithOptions(dir, LoadOptions{
					Workers: 4, Serve: mode, CachePages: 2,
				})
				if err != nil {
					t.Fatalf("%s load: %v", mode, err)
				}
				t.Cleanup(paged.Close)
				if man.FormatVersion != snapshot.FormatVersion {
					t.Fatalf("manifest format version %d", man.FormatVersion)
				}
				// A requested mmap may legitimately fall back to readat on
				// platforms without mmap; readat must stay readat.
				got := paged.ServeMode()
				if mode == ServeReadAt && got != ServeReadAt {
					t.Fatalf("readat load serve mode %q", got)
				}
				if got != ServeMmap && got != ServeReadAt {
					t.Fatalf("paged load serve mode %q", got)
				}
				res, _ := paged.SearchBatch(d.Queries, 10)
				sameNeighbors(t, algo+"/"+mode, res, want)

				ps, ok := paged.PageStats()
				if !ok {
					t.Fatalf("%s: no page stats", mode)
				}
				if ps.Touches == 0 || ps.Faults == 0 {
					t.Errorf("%s: page counters not advancing: %+v", mode, ps)
				}
				if ps.IOErrors != 0 {
					t.Errorf("%s: %d I/O errors", mode, ps.IOErrors)
				}
				// 3 shards x 2 cache pages each.
				if ps.CachePages != 6 || ps.ResidentPages > ps.CachePages {
					t.Errorf("%s: resident %d over budget %d (cache pages %d)",
						mode, ps.ResidentPages, ps.CachePages, ps.CachePages)
				}

				applyWrites(t, paged, d, want)
				res, _ = paged.SearchBatch(d.Queries, 10)
				sameNeighbors(t, algo+"/"+mode+" after writes", res, wantMut)
				mst := paged.MutStats()
				if mst != ram.MutStats() || paged.Len() != ram.Len() {
					t.Fatalf("%s: mutation stats %+v (len %d), RAM engine %+v (len %d)",
						mode, mst, paged.Len(), ram.MutStats(), ram.Len())
				}
				if err := paged.Compact(); err == nil {
					t.Fatalf("%s: Compact on a paged engine succeeded", mode)
				}
				if paged.Generation() != 0 || paged.MutStats() != mst {
					t.Fatalf("%s: failed Compact moved generation %d / stats %+v (before %+v)",
						mode, paged.Generation(), paged.MutStats(), mst)
				}
				if name, ok, err := snapshot.ReadCurrent(dir); name != snapshot.GenerationName(0) || !ok || err != nil {
					t.Fatalf("%s: failed Compact moved CURRENT to %q (ok=%v err=%v), want it still naming gen-000000", mode, name, ok, err)
				}
				res, _ = paged.SearchBatch(d.Queries, 10)
				sameNeighbors(t, algo+"/"+mode+" after failed compact", res, wantMut)
			}
		})
	}
}

// Unknown serving modes fail up front, before any file is opened.
func TestLoadWithOptionsRejectsUnknownMode(t *testing.T) {
	if _, _, err := LoadWithOptions(t.TempDir(), LoadOptions{Serve: "disk"}); err == nil {
		t.Fatal("unknown serving mode accepted")
	}
}

// Close on a paged engine is idempotent and releases the shard files;
// a second Close must not double-free the mappings.
func TestPagedEngineCloseIdempotent(t *testing.T) {
	e, d := buildTestEngine(t, "hnsw", 2)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	paged, _, err := LoadWithOptions(dir, LoadOptions{Workers: 2, Serve: ServeMmap})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res := paged.Search(d.Queries[0], 5); len(res) == 0 {
		t.Fatal("no results before close")
	}
	paged.Close()
	paged.Close()
}
