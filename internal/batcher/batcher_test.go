package batcher

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/vec"
)

func testEngine(t testing.TB, n, queries, shards, workers int) (*engine.Engine, *dataset.Dataset) {
	return wrappedEngine(t, n, queries, shards, workers, func(idx ann.Index) ann.Index { return idx })
}

// wrappedEngine is testEngine with every exact shard index passed
// through wrap.
func wrappedEngine(t testing.TB, n, queries, shards, workers int, wrap func(ann.Index) ann.Index) (*engine.Engine, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: n, Queries: queries, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.BuilderByName("exact", d.Profile.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(d.Vectors, engine.Config{Shards: shards, Workers: workers,
		Builder: func(shard int, data []vec.Vector) (ann.Index, error) {
			idx, err := b(shard, data)
			if err != nil {
				return nil, err
			}
			return wrap(idx), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d
}

// gate parks every shard search until open is called, signalling held
// as a search arrives: a test keeps the engine (and so the dispatcher)
// busy for exactly as long as it needs, without a clock.
type gate struct {
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

type gatedIndex struct {
	ann.Index
	g *gate
}

func (x gatedIndex) SearchFilter(q vec.Vector, k int, skip func(uint32) bool) []ann.Neighbor {
	select {
	case x.g.held <- struct{}{}:
	default:
	}
	<-x.g.release
	return x.Index.SearchFilter(q, k, skip)
}

// gatedEngine is a one-shard, one-worker engine behind a closed gate,
// with a batcher over it. The gate opens at cleanup, before the batcher
// and engine close.
func gatedEngine(t *testing.T, n, queries int) (*engine.Engine, *dataset.Dataset, *Batcher, *gate) {
	t.Helper()
	g := &gate{held: make(chan struct{}, 1), release: make(chan struct{})}
	e, d := wrappedEngine(t, n, queries, 1, 1, func(idx ann.Index) ann.Index { return gatedIndex{idx, g} })
	bat := New(e)
	t.Cleanup(bat.Close)
	t.Cleanup(g.open)
	return e, d, bat, g
}

// hold submits q in the background and returns once its batch is parked
// at the gate, so the dispatcher is busy; the returned channel yields
// the submit's error when it completes.
func hold(bat *Batcher, g *gate, q vec.Vector) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := bat.Search(q, 1, nil)
		done <- err
	}()
	<-g.held
	return done
}

// waitQueued blocks until n submits sit in the submit channel, every one
// of them past its send.
func waitQueued(bat *Batcher, n int) {
	for len(bat.submit) < n {
		runtime.Gosched()
	}
}

// The acceptance invariant: results fanned back through the batcher are
// byte-identical to a direct engine search, under many concurrent
// single-query submitters (run with -race).
func TestCoalescedMatchesDirect(t *testing.T) {
	e, d := testEngine(t, 500, 32, 3, 4)
	const k = 7
	direct, _ := e.SearchBatch(d.Queries, k)

	bat := New(e)
	defer bat.Close()
	const rounds = 4
	got := make([][][]ann.Neighbor, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		got[r] = make([][]ann.Neighbor, len(d.Queries))
		for qi := range d.Queries {
			wg.Add(1)
			go func(r, qi int) {
				defer wg.Done()
				res, info, err := bat.Search(d.Queries[qi], k, nil)
				if err != nil {
					t.Errorf("round %d query %d: %v", r, qi, err)
					return
				}
				if info.FormedSize < 1 || info.Submits < 1 || info.K < k {
					t.Errorf("round %d query %d: bad info %+v", r, qi, info)
				}
				got[r][qi] = res
			}(r, qi)
		}
	}
	wg.Wait()
	for r := 0; r < rounds; r++ {
		for qi := range d.Queries {
			if !reflect.DeepEqual(got[r][qi], direct[qi]) {
				t.Fatalf("round %d query %d: coalesced %v != direct %v",
					r, qi, got[r][qi], direct[qi])
			}
		}
	}
	st := bat.Stats()
	if st.Submits != rounds*int64(len(d.Queries)) || st.Queries != st.Submits {
		t.Fatalf("bad submit counters: %+v", st)
	}
	if st.Batches < 1 || st.MaxFormedBatch < 1 || st.MeanFormedBatch() <= 0 {
		t.Fatalf("bad batch counters: %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue not drained: %+v", st)
	}
}

// Stats(), MutStats() and Batcher.Stats() are lock-free views over
// atomics: snapshots taken while searches, coalesced submits and
// upserts run must never go backwards in any cumulative field, and the
// final snapshot must account for every operation (run with -race).
func TestStatsSnapshotsMonotone(t *testing.T) {
	e, d := testEngine(t, 300, 16, 2, 4)
	bat := New(e)
	defer bat.Close()
	const rounds, k = 20, 5

	snapshot := func() []int64 {
		es, ms, bs := e.Stats(), e.MutStats(), bat.Stats()
		return []int64{
			es.Batches, es.Queries, es.ShardSearches, int64(es.Busy), int64(es.MaxBatchLatency),
			ms.Upserts, ms.Deletes, ms.Compactions,
			bs.Submits, bs.Queries, bs.Batches, int64(bs.MaxFormedBatch), int64(bs.WaitTotal), int64(bs.WaitMax),
		}
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		prev := snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := snapshot()
			for i := range cur {
				if cur[i] < prev[i] {
					t.Errorf("field %d went backwards: %d after %d", i, cur[i], prev[i])
					return
				}
			}
			prev = cur
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				e.SearchBatch(d.Queries[:4], k)
			}
		}()
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, _, err := bat.Search(d.Queries[(g+r)%len(d.Queries)], k, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if err := e.Upsert(uint32(1000+r), d.Vectors[r]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled

	es, ms, bs := e.Stats(), e.MutStats(), bat.Stats()
	if want := int64(3 * rounds * 5); es.Queries != want || ms.Upserts != rounds || bs.Submits != 3*rounds || bs.Queries != bs.Submits {
		t.Fatalf("final snapshot lost an operation: engine %+v, mutation %+v, batcher %+v (want %d queries)", es, ms, bs, want)
	}
}

// Submits with different k flush together but dispatch as separate
// engine batches (k shapes an approximate index's search width), so
// each caller's results match a direct engine search at its own k.
func TestMixedKSplitsEngineBatches(t *testing.T) {
	_, d, bat, g := gatedEngine(t, 300, 3)
	held := hold(bat, g, d.Queries[2])
	type out struct {
		res  []ann.Neighbor
		info BatchInfo
	}
	outs := make([]out, 2)
	ks := []int{3, 9}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, info, err := bat.Search(d.Queries[i], ks[i], nil)
			if err != nil {
				t.Error(err)
				return
			}
			outs[i] = out{res, info}
		}(i)
	}
	waitQueued(bat, 2)
	g.open()
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if len(outs[i].res) != ks[i] {
			t.Fatalf("submit %d: %d results, want k=%d", i, len(outs[i].res), ks[i])
		}
		if outs[i].info.K != ks[i] || outs[i].info.FormedSize != 1 || outs[i].info.Submits != 1 {
			t.Fatalf("submit %d: info %+v, want own engine batch at k=%d", i, outs[i].info, ks[i])
		}
		want := ann.BruteForce(d.Profile.Metric, d.Vectors, d.Queries[i], ks[i])
		if !reflect.DeepEqual(outs[i].res, want) {
			t.Fatalf("submit %d: %v != brute force %v", i, outs[i].res, want)
		}
	}
	// The held batch plus one flush of two engine batches.
	if st := bat.Stats(); st.Batches != 3 || st.Submits != 3 || st.MaxFormedBatch != 1 {
		t.Fatalf("mixed-k flush must form one engine batch per k: %+v", st)
	}
}

// A lone submit on an idle batcher dispatches at once, alone.
func TestIdleSubmitDispatchesAlone(t *testing.T) {
	e, d := testEngine(t, 200, 1, 2, 2)
	bat := New(e)
	defer bat.Close()
	res, info, err := bat.Search(d.Queries[0], 5, nil)
	if err != nil || len(res) != 5 {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if info.FormedSize != 1 || info.Submits != 1 {
		t.Fatalf("info %+v, want singleton batch", info)
	}
}

// While a batch runs, submits queue; the next batch is exactly what
// queued, and its results equal a direct search.
func TestBusyEngineBatchesTheQueue(t *testing.T) {
	e, d, bat, g := gatedEngine(t, 300, 6)
	held := hold(bat, g, d.Queries[5])
	const k = 4
	got := make([][]ann.Neighbor, 5)
	infos := make([]BatchInfo, 5)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, info, err := bat.Search(d.Queries[i], k, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got[i], infos[i] = res, info
		}(i)
	}
	waitQueued(bat, 5)
	if depth := bat.Stats().QueueDepth; depth != 5 {
		t.Fatalf("QueueDepth = %d behind a busy engine, want 5", depth)
	}
	g.open()
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	direct, _ := e.SearchBatch(d.Queries[:5], k)
	for i := range got {
		if infos[i].FormedSize != 5 || infos[i].Submits != 5 || infos[i].K != k {
			t.Fatalf("submit %d: info %+v, want the 5 queued submits in one batch", i, infos[i])
		}
		if !reflect.DeepEqual(got[i], direct[i]) {
			t.Fatalf("submit %d: coalesced %v != direct %v", i, got[i], direct[i])
		}
	}
	if st := bat.Stats(); st.Batches != 2 || st.Submits != 6 || st.QueueDepth != 0 {
		t.Fatalf("stats %+v, want the held batch and one batch of 5", st)
	}
}

// Past the channel's capacity senders block on the send, still counted
// in the queue depth, and one flush takes at most maxBatch queries.
func TestFlushCapsAtMaxBatch(t *testing.T) {
	_, d, bat, g := gatedEngine(t, 100, 1)
	held := hold(bat, g, d.Queries[0])
	const extra = 10
	var wg sync.WaitGroup
	for i := 0; i < maxBatch+extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := bat.Search(d.Queries[0], 2, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	for bat.Stats().QueueDepth < maxBatch+extra {
		runtime.Gosched()
	}
	g.open()
	wg.Wait()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if st := bat.Stats(); st.MaxFormedBatch != maxBatch || st.Submits != maxBatch+extra+1 {
		t.Fatalf("stats %+v, want no flush above %d queries", st, maxBatch)
	}
}

// Close serves the submits parked behind a running batch, then rejects
// new submits; it is idempotent.
func TestCloseFlushesAndRejects(t *testing.T) {
	_, d, bat, g := gatedEngine(t, 200, 3)
	held := hold(bat, g, d.Queries[2])
	parked := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			res, _, err := bat.Search(d.Queries[i], 3, nil)
			if err == nil && len(res) != 3 {
				t.Errorf("parked submit returned %d results, want 3", len(res))
			}
			parked <- err
		}(i)
	}
	waitQueued(bat, 2)
	closed := make(chan struct{})
	go func() {
		bat.Close()
		close(closed)
	}()
	// Open the gate only once Close has shut the queue.
	for {
		bat.closeMu.RLock()
		c := bat.closed
		bat.closeMu.RUnlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	g.open()
	<-closed
	for _, ch := range []<-chan error{held, parked, parked} {
		if err := <-ch; err != nil {
			t.Fatalf("queued submit must be served on Close, got %v", err)
		}
	}
	if _, _, err := bat.Submit([]vec.Vector{d.Queries[1]}, 3, nil); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	bat.Close() // idempotent
}

func TestSubmitValidation(t *testing.T) {
	e, d := testEngine(t, 100, 1, 1, 1)
	bat := New(e)
	defer bat.Close()
	if _, _, err := bat.Submit(nil, 3, nil); err == nil {
		t.Error("empty submit must fail")
	}
	if _, _, err := bat.Submit([]vec.Vector{d.Queries[0]}, 0, nil); err == nil {
		t.Error("k=0 must fail")
	}
}

// The closed-loop acceptance benchmark as a test: N concurrent
// single-query submitters through the batcher must reach >= 3x the QPS
// of serialized one-query SearchBatch calls, with byte-identical
// results. The speedup comes from keeping the engine's worker pool full;
// it needs real cores, so the ratio assertion is gated on GOMAXPROCS.
func TestCoalescedThroughputBeatsSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in short mode")
	}
	e, d := testEngine(t, 3000, 256, 1, runtime.GOMAXPROCS(0))
	const k = 10
	direct, _ := e.SearchBatch(d.Queries, k)

	serialStart := time.Now()
	for qi := range d.Queries {
		res, _ := e.SearchBatch(d.Queries[qi:qi+1], k)
		if !reflect.DeepEqual(res[0], direct[qi]) {
			t.Fatalf("serialized query %d diverged", qi)
		}
	}
	serial := time.Since(serialStart)

	bat := New(e)
	defer bat.Close()
	const submitters = 16
	got := make([][]ann.Neighbor, len(d.Queries))
	coalStart := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for qi := g; qi < len(d.Queries); qi += submitters {
				res, _, err := bat.Search(d.Queries[qi], k, nil)
				if err != nil {
					t.Error(err)
					return
				}
				got[qi] = res
			}
		}(g)
	}
	wg.Wait()
	coalesced := time.Since(coalStart)

	for qi := range d.Queries {
		if !reflect.DeepEqual(got[qi], direct[qi]) {
			t.Fatalf("coalesced query %d: %v != direct %v", qi, got[qi], direct[qi])
		}
	}
	speedup := serial.Seconds() / coalesced.Seconds()
	t.Logf("serialized %v, coalesced %v: %.2fx QPS (GOMAXPROCS=%d, stats %+v)",
		serial, coalesced, speedup, runtime.GOMAXPROCS(0), bat.Stats())
	if procs := runtime.GOMAXPROCS(0); procs < 4 {
		t.Skipf("results verified byte-identical; %d procs cannot demonstrate the 3x speedup", procs)
	}
	if speedup < 3 {
		t.Fatalf("coalesced speedup %.2fx, want >= 3x", speedup)
	}
}
