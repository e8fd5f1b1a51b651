package engine

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

func testData(t *testing.T, n, queries int) *dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: n, Queries: queries, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func exactEngine(t *testing.T, data []vec.Vector, m vec.Metric, shards, workers int) *Engine {
	t.Helper()
	b, err := BuilderByName("exact", m, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(data, Config{Shards: shards, Workers: workers, Builder: b})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

// The load-bearing invariant: merging per-shard exact top-k lists must
// equal the exact top-k of the whole corpus, for any shard count.
func TestShardedExactMatchesBruteForce(t *testing.T) {
	d := testData(t, 600, 24)
	k := 10
	for _, shards := range []int{1, 2, 3, 7, 16} {
		e := exactEngine(t, d.Vectors, d.Profile.Metric, shards, 4)
		res, st := e.SearchBatch(d.Queries, k)
		if st.BatchSize != len(d.Queries) || st.Shards != shards {
			t.Fatalf("shards=%d: bad stats %+v", shards, st)
		}
		for qi, q := range d.Queries {
			exact := ann.BruteForce(d.Profile.Metric, d.Vectors, q, k)
			if !reflect.DeepEqual(res[qi], exact) {
				t.Fatalf("shards=%d query %d: merged %v != exact %v", shards, qi, res[qi], exact)
			}
			if err := ann.Validate(res[qi], len(d.Vectors)); err != nil {
				t.Fatalf("shards=%d query %d: %v", shards, qi, err)
			}
		}
	}
}

// A 2-shard HNSW engine over the same corpus must hit the recall target
// an unsharded HNSW index hits: sharding restricts each graph to its
// partition but the exact merge loses nothing.
func TestShardedHNSWHoldsRecall(t *testing.T) {
	d := testData(t, 900, 30)
	k := 10
	b, err := BuilderByName("hnsw", d.Profile.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	single, err := b(0, d.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{Shards: 2, Workers: 4, Builder: b})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	res, _ := e.SearchBatch(d.Queries, k)
	var shardSum, singleSum float64
	for qi, q := range d.Queries {
		exact := ann.BruteForce(d.Profile.Metric, d.Vectors, q, k)
		shardSum += ann.Recall(res[qi], exact, k)
		singleSum += ann.Recall(single.Search(q, k), exact, k)
	}
	shardRecall := shardSum / float64(len(d.Queries))
	singleRecall := singleSum / float64(len(d.Queries))
	if shardRecall < singleRecall-0.02 {
		t.Fatalf("sharded recall %.3f fell below unsharded %.3f", shardRecall, singleRecall)
	}
	if shardRecall < 0.85 {
		t.Fatalf("sharded recall %.3f below target", shardRecall)
	}
}

// Concurrent batches on one engine must be race-free (run under -race)
// and each must still return exact results.
func TestConcurrentBatches(t *testing.T) {
	d := testData(t, 400, 32)
	k := 5
	e := exactEngine(t, d.Vectors, d.Profile.Metric, 4, 3)
	want := make([][]ann.Neighbor, len(d.Queries))
	for qi, q := range d.Queries {
		want[qi] = ann.BruteForce(d.Profile.Metric, d.Vectors, q, k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 5; iter++ {
				lo := rng.Intn(len(d.Queries) / 2)
				hi := lo + 1 + rng.Intn(len(d.Queries)-lo-1)
				res, _ := e.SearchBatch(d.Queries[lo:hi], k)
				for i, r := range res {
					if !reflect.DeepEqual(r, want[lo+i]) {
						t.Errorf("goroutine %d: query %d mismatch", g, lo+i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := e.Stats()
	if st.Batches != 40 {
		t.Fatalf("Batches = %d, want 40", st.Batches)
	}
	if st.Queries <= 0 || st.ShardSearches != st.Queries*4 {
		t.Fatalf("inconsistent counters: %+v", st)
	}
	if st.MeanQueryLatency() <= 0 || st.MaxBatchLatency <= 0 {
		t.Fatalf("latency counters not recorded: %+v", st)
	}
}

// Distance ties at the k-th position across shards must resolve by the
// global (distance, ID) order, exactly as brute force does — the case
// the Frontier-based merge relies on Frontier.Push's ID tie-break for.
func TestMergeResolvesTiesLikeBruteForce(t *testing.T) {
	// Eight vectors, four distinct positions, each duplicated across the
	// two shard halves: every distance ties between shards.
	corpus := []vec.Vector{
		{0, 0}, {1, 0}, {2, 0}, {3, 0},
		{0, 0}, {1, 0}, {2, 0}, {3, 0},
	}
	m := vec.L2
	e := exactEngine(t, corpus, m, 2, 2)
	for k := 1; k <= len(corpus); k++ {
		got := e.Search(vec.Vector{0.1, 0}, k)
		want := ann.BruteForce(m, corpus, vec.Vector{0.1, 0}, k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: merged %v != exact %v", k, got, want)
		}
	}
}

// countingIndex observes concurrent shard searches so tests can assert
// the engine-wide worker bound.
type countingIndex struct {
	*ann.Exact
	active, peak *int64
}

func (c countingIndex) SearchFilter(q vec.Vector, k int, skip func(uint32) bool) []ann.Neighbor {
	n := atomic.AddInt64(c.active, 1)
	for {
		p := atomic.LoadInt64(c.peak)
		if n <= p || atomic.CompareAndSwapInt64(c.peak, p, n) {
			break
		}
	}
	time.Sleep(200 * time.Microsecond) // widen the overlap window
	res := c.Exact.SearchFilter(q, k, skip)
	atomic.AddInt64(c.active, -1)
	return res
}

// Workers is an engine-wide bound: concurrent SearchBatch callers share
// it rather than each getting their own pool.
func TestWorkersBoundHoldsAcrossConcurrentBatches(t *testing.T) {
	d := testData(t, 200, 16)
	const workers = 3
	var active, peak int64
	builder := func(_ int, data []vec.Vector) (ann.Index, error) {
		return countingIndex{Exact: ann.NewExact(d.Profile.Metric, data), active: &active, peak: &peak}, nil
	}
	e, err := New(d.Vectors, Config{Shards: 4, Workers: workers, Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				e.SearchBatch(d.Queries, 5)
			}
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt64(&peak); got > workers {
		t.Fatalf("observed %d concurrent shard searches, bound is %d", got, workers)
	}
}

// Close must stop the pool exactly once, be idempotent, and leave
// completed results and counters intact.
func TestClose(t *testing.T) {
	d := testData(t, 100, 8)
	b, err := BuilderByName("exact", d.Profile.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{Shards: 2, Workers: 2, Builder: b})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := e.SearchBatch(d.Queries, 3)
	if len(res) != len(d.Queries) {
		t.Fatalf("got %d result lists, want %d", len(res), len(d.Queries))
	}
	e.Close()
	e.Close() // idempotent
	st := e.Stats()
	if st.Batches != 1 || st.Queries != int64(len(d.Queries)) {
		t.Fatalf("stats lost across Close: %+v", st)
	}
}

// Every query visits every shard, so the per-shard counters must be
// uniform and sum to ShardSearches.
func TestPerShardSearchCounters(t *testing.T) {
	d := testData(t, 300, 12)
	e := exactEngine(t, d.Vectors, d.Profile.Metric, 3, 2)
	e.SearchBatch(d.Queries, 4)
	e.SearchBatch(d.Queries[:5], 4)
	st := e.Stats()
	if len(st.PerShardSearches) != 3 {
		t.Fatalf("PerShardSearches = %v, want 3 shards", st.PerShardSearches)
	}
	var sum int64
	for si, c := range st.PerShardSearches {
		if c != st.Queries {
			t.Errorf("shard %d executed %d searches, want %d", si, c, st.Queries)
		}
		sum += c
	}
	if sum != st.ShardSearches {
		t.Fatalf("per-shard sum %d != ShardSearches %d", sum, st.ShardSearches)
	}
}

func TestPartition(t *testing.T) {
	// wantParts is the clamped part count: parts bounded to [1, n]
	// (to 1 when n == 0), so no range is empty for non-empty input.
	for _, tc := range []struct{ n, parts, wantParts int }{
		{10, 3, 3}, {1, 1, 1}, {7, 7, 7}, {100, 16, 16}, {5, 2, 2},
		// Clamping cases: parts > n, parts < 1, empty input.
		{3, 8, 3}, {1, 5, 1}, {10, 0, 1}, {10, -2, 1}, {0, 4, 1}, {0, 0, 1},
	} {
		off := Partition(tc.n, tc.parts)
		if len(off) != tc.wantParts+1 || off[0] != 0 || off[tc.wantParts] != tc.n {
			t.Fatalf("Partition(%d,%d) = %v, want %d parts covering [0,%d)",
				tc.n, tc.parts, off, tc.wantParts, tc.n)
		}
		for i := 1; i <= tc.wantParts; i++ {
			size := off[i] - off[i-1]
			if tc.n > 0 && size < 1 {
				t.Fatalf("Partition(%d,%d) produced empty part %d: %v", tc.n, tc.parts, i-1, off)
			}
			if size < tc.n/tc.wantParts || size > tc.n/tc.wantParts+1 {
				t.Fatalf("Partition(%d,%d) uneven: %v", tc.n, tc.parts, off)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	d := testData(t, 20, 1)
	b, _ := BuilderByName("exact", d.Profile.Metric, 1)
	if _, err := New(d.Vectors, Config{Shards: 2}); err == nil {
		t.Error("nil Builder must fail")
	}
	if _, err := New(d.Vectors, Config{Shards: 0, Builder: b}); err == nil {
		t.Error("zero shards must fail")
	}
	if _, err := New(nil, Config{Shards: 1, Builder: b}); err == nil {
		t.Error("empty corpus must fail")
	}
	// More shards than vectors clamps rather than leaving empty shards.
	e, err := New(d.Vectors, Config{Shards: 64, Builder: b})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Shards() != len(d.Vectors) {
		t.Fatalf("Shards() = %d, want clamp to %d", e.Shards(), len(d.Vectors))
	}
	if _, err := BuilderByName("nope", d.Profile.Metric, 1); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

func TestEmptyBatchAndZeroK(t *testing.T) {
	d := testData(t, 50, 4)
	e := exactEngine(t, d.Vectors, d.Profile.Metric, 2, 2)
	if res, st := e.SearchBatch(nil, 10); res != nil || st.BatchSize != 0 {
		t.Fatalf("empty batch: res=%v stats=%+v", res, st)
	}
	if res, _ := e.SearchBatch(d.Queries, 0); res != nil {
		t.Fatalf("k=0 must return nil, got %v", res)
	}
	if got := e.Search(d.Queries[0], 3); len(got) != 3 {
		t.Fatalf("Search returned %d results, want 3", len(got))
	}
}
