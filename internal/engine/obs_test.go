package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/obs"
	"ndsearch/internal/vec"
)

// stageSet collects the distinct stage names of a span list.
func stageSet(spans []obs.Span) map[string]int {
	set := make(map[string]int)
	for _, s := range spans {
		set[s.Stage]++
	}
	return set
}

// TestTracedSearchByteIdentical is the tracing acceptance property:
// attaching a trace to a batch must not perturb results — traced and
// untraced executions return deep-equal top-k lists, for every family,
// on both the pure-read path and a mutated engine (delta tier live, so
// the per-tier merge folds run).
func TestTracedSearchByteIdentical(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 72, Queries: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 48
	base := pool.Vectors[:n0]
	spare := pool.Vectors[n0:]
	queries := pool.Queries
	const k = 5

	for _, algo := range Algos() {
		t.Run(algo, func(t *testing.T) {
			e, err := New(base, Config{
				Shards: 3, Workers: 2,
				Builder: exhaustiveBuilder(t, algo, vec.L2, 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Close)

			check := func(stage string, wantStages ...string) {
				t.Helper()
				plain, _ := e.SearchBatch(queries, k)
				tr := obs.NewTrace()
				traced, _ := e.SearchBatchOpts(queries, k, SearchOptions{Trace: tr})
				if !reflect.DeepEqual(plain, traced) {
					t.Fatalf("%s: traced results differ from untraced:\nplain:  %v\ntraced: %v",
						stage, plain, traced)
				}
				set := stageSet(tr.Spans())
				for _, s := range wantStages {
					if set[s] == 0 {
						t.Errorf("%s: trace missing stage %q (got %v)", stage, s, set)
					}
				}
				if got := set["shard_search"]; got != len(queries)*3 {
					t.Errorf("%s: %d shard_search spans, want %d", stage, got, len(queries)*3)
				}
			}

			check("clean", "fanout", "shard_search", "merge")

			// Mutate: upserts land in the delta tier, a delete shadows the
			// base, so the traced merge walks the per-tier folds.
			for i, v := range spare {
				if err := e.Upsert(uint32(n0+i), v); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := e.Delete(0); err != nil {
				t.Fatal(err)
			}
			check("mutated", "fanout", "shard_search", "merge_delta", "merge_base")
		})
	}
}

// TestNilTraceOptsMatchesSearchBatch pins the delegation: SearchBatch
// and SearchBatchOpts with a zero SearchOptions are the same execution.
func TestNilTraceOptsMatchesSearchBatch(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 32, Queries: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(pool.Vectors, Config{
		Shards: 2, Workers: 2,
		Builder: exhaustiveBuilder(t, "exact", vec.L2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	a, _ := e.SearchBatch(pool.Queries, 4)
	b, _ := e.SearchBatchOpts(pool.Queries, 4, SearchOptions{})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("SearchBatchOpts{} differs from SearchBatch:\n%v\n%v", a, b)
	}
}

// TestEngineMetrics checks that the instruments are the one source of
// serving numbers: after mixed traffic (a batch, a single search,
// upserts, a delete of a live and of an absent ID, one compaction)
// Stats()/MutStats() carry the expected counts and the exposition
// carries the same values — and the views count just the same on an
// engine EnableMetrics was never called on (the embedded, scrape-less
// shape).
func TestEngineMetrics(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 40, Queries: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 32
	for _, exposed := range []bool{true, false} {
		t.Run(fmt.Sprintf("exposed=%t", exposed), func(t *testing.T) {
			e, err := New(pool.Vectors[:n0], Config{
				Shards: 2, Workers: 2,
				Builder: exhaustiveBuilder(t, "exact", vec.L2, 1),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.Close)
			r := obs.NewRegistry()
			if exposed {
				e.EnableMetrics(r)
			}

			e.SearchBatch(pool.Queries, 3)
			e.Search(pool.Queries[0], 3)
			for i, v := range pool.Vectors[n0:] {
				if err := e.Upsert(uint32(n0+i), v); err != nil {
					t.Fatal(err)
				}
			}
			if wasLive, err := e.Delete(1); err != nil || !wasLive {
				t.Fatalf("Delete(1) = %v, %v", wasLive, err)
			}
			if wasLive, err := e.Delete(9999); err != nil || wasLive {
				t.Fatalf("Delete(absent) = %v, %v", wasLive, err)
			}
			if got := e.Generation(); got != 0 {
				t.Errorf("Generation() = %d before compaction, want 0", got)
			}
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			if got := e.Generation(); got != 1 {
				t.Errorf("Generation() = %d after compaction, want 1", got)
			}

			st, mu := e.Stats(), e.MutStats()
			nq, added := int64(len(pool.Queries)+1), int64(len(pool.Vectors)-n0)
			facts := []struct {
				sample    string
				got, want int64
			}{
				{"nd_search_batches_total", st.Batches, 2},
				{"nd_search_queries_total", st.Queries, nq},
				{"nd_shard_searches_total", st.ShardSearches, 2 * nq},
				{"nd_search_latency_seconds_count", int64(e.m.searchLatency.Count()), 2},
				{"nd_search_batch_size_sum", int64(e.m.batchSize.Sum()), nq},
				{"nd_upserts_total", mu.Upserts, added},
				{"nd_deletes_total", mu.Deletes, 1},
				{"nd_compactions_total", mu.Compactions, 1},
				{"nd_compaction_seconds_count", int64(e.m.compactSeconds.Count()), 1},
				{"nd_generation", int64(mu.Generation), 1},
				{"nd_live_vectors", int64(e.Len()), n0 + added - 1},
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Fatal(err)
			}
			out := b.String()
			if !exposed && out != "" {
				t.Fatalf("nothing was registered, yet the exposition is:\n%s", out)
			}
			for _, f := range facts {
				if f.got != f.want {
					t.Errorf("%s: view reads %d, want %d", f.sample, f.got, f.want)
				}
				if line := fmt.Sprintf("%s %d\n", f.sample, f.got); exposed && !strings.Contains(out, line) {
					t.Errorf("exposition missing %q:\n%s", line, out)
				}
			}
			if st.MaxBatchLatency <= 0 || st.Busy < st.MaxBatchLatency {
				t.Errorf("Busy = %v, MaxBatchLatency = %v: want 0 < max <= busy", st.Busy, st.MaxBatchLatency)
			}
			if mu.LastCompactDuration <= 0 || mu.LastCompactVectors != e.Len() {
				t.Errorf("last compaction = %v over %d vectors, want > 0 over %d",
					mu.LastCompactDuration, mu.LastCompactVectors, e.Len())
			}
			if exposed && !strings.Contains(out, "# TYPE nd_search_latency_seconds histogram\n") {
				t.Errorf("exposition missing the latency histogram:\n%s", out)
			}
		})
	}
}
