package engine

import (
	"fmt"
	"reflect"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/obs"
)

// With one worker the runs execute in enqueue order, so a batch's
// shard searches are shard-major: every query on shard 0 in ascending
// order, then every query on shard 1, and so on.
func TestRunScheduleIsShardMajor(t *testing.T) {
	d := testData(t, 300, 7)
	const shards = 3
	e := exactEngine(t, d.Vectors, d.Profile.Metric, shards, 1)
	tr := obs.NewTrace()
	e.SearchBatchOpts(d.Queries, 5, SearchOptions{Trace: tr})
	var got [][2]int
	for _, sp := range tr.Spans() {
		if sp.Stage == "shard_search" {
			got = append(got, [2]int{sp.Shard, sp.Query})
		}
	}
	var want [][2]int
	for si := 0; si < shards; si++ {
		for qi := range d.Queries {
			want = append(want, [2]int{si, qi})
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard_search (shard, query) in start order:\n got %v\nwant %v", got, want)
	}
}

// However a batch is cut into runs — fewer, as many or more workers
// than shards, batches shorter and longer than the worker count — it
// answers exactly what per-query Search answers, and every shard
// searches every query once.
func TestRunScheduleMatchesSearch(t *testing.T) {
	d := testData(t, 240, 33)
	const k = 5
	for _, shards := range []int{1, 3, 4} {
		for _, workers := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				e := exactEngine(t, d.Vectors, d.Profile.Metric, shards, workers)
				for _, b := range []int{1, 2, 5, 33} {
					got, st := e.SearchBatch(d.Queries[:b], k)
					want := make([][]ann.Neighbor, b)
					for qi, q := range d.Queries[:b] {
						want[qi] = e.Search(q, k)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("batch %d: SearchBatch differs from per-query Search", b)
					}
					if st.ShardSearches != b*shards {
						t.Fatalf("batch %d: ShardSearches = %d, want %d", b, st.ShardSearches, b*shards)
					}
				}
				st := e.Stats()
				for si, c := range st.PerShardSearches {
					if c != st.Queries {
						t.Errorf("shard %d executed %d searches, want %d", si, c, st.Queries)
					}
				}
			})
		}
	}
}

// Each paged shard has its own page cache, and a run keeps each
// shard's queries in batch order, so on one worker a batch touches and
// faults exactly the pages the same queries do one Search at a time.
func TestRunSchedulePageCounters(t *testing.T) {
	e, d := buildTestEngine(t, "hnsw", 3)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	load := func() *Engine {
		t.Helper()
		p, _, err := LoadWithOptions(dir, LoadOptions{Workers: 1, Serve: ServeMmap, CachePages: 2})
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		t.Cleanup(p.Close)
		return p
	}
	batched, single := load(), load()
	got, _ := batched.SearchBatch(d.Queries, 10)
	want := make([][]ann.Neighbor, len(d.Queries))
	for qi, q := range d.Queries {
		want[qi] = single.Search(q, 10)
	}
	sameNeighbors(t, "batch vs single", got, want)
	b, _ := batched.PageStats()
	s, _ := single.PageStats()
	if b.Touches == 0 || b.Faults == 0 {
		t.Fatalf("page counters not advancing: %+v", b)
	}
	if b.Touches != s.Touches || b.Faults != s.Faults {
		t.Fatalf("batch touched %d pages with %d faults, one at a time %d with %d",
			b.Touches, b.Faults, s.Touches, s.Faults)
	}
}
