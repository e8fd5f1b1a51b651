package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/engine"
	"ndsearch/internal/obs"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
)

// request is what the harness records about one client call.
type request struct {
	start, dur time.Duration // start is measured from the window's start
	queries    int
	traced     bool
	// engine, wait and formed are what the program reported about the
	// engine batch that served the call (BatchStats, batcher.BatchInfo or
	// ndserve's batch{} field).
	engine, wait        time.Duration
	formed              int
	reqBytes, respBytes int
	err                 error
}

// counters are cumulative counts the program exposes; the harness
// reports their growth over a window.
type counters struct {
	shardSearches, batcherBatches int64
	touches, faults, ioErrors     uint64
}

// target is the program as one workload's clients see it.
type target interface {
	// do issues client c's i-th request. With tr non-nil the request is
	// traced: do adds its spans under the root span 0, placing the call
	// at originUS on the window clock.
	do(c, i int, tr *reqTrace, originUS float64, r *request)
	// search answers queries one by one through the path do uses.
	search(qs []vec.Vector) ([][]ann.Neighbor, error)
	counters() (counters, error)
	close() error
}

// window is one closed-loop run: every request that started inside it.
type window struct {
	dur     time.Duration
	clients int
	reqs    []request
	traces  [][]span // one entry per traced request
	calib   []calibSample
	clock   refClock // reference time over the window, from calib
}

// runWindow drives t with closed-loop clients for dur: each client
// sends its next request when the previous one returns, calibrating the
// reference clock in between (calib.go). When tracing,
// requests alternate between traced and untraced every traceSlice, so
// both modes see the same drift. background, if set, runs beside the
// clients from the same start and is waited for.
func runWindow(t target, clients int, dur time.Duration, tracing bool, background func(start time.Time)) *window {
	per := make([]window, clients)
	var wg sync.WaitGroup
	start := now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w := &per[c]
			cal := newCalibrator(c)
			defer func() { w.calib = cal.samples }()
			for i := 0; ; i++ {
				at := now().Sub(start)
				if at >= dur {
					return
				}
				cal.tick(at)
				at = now().Sub(start)
				r := request{start: at}
				var tr *reqTrace
				if tracing && (at/traceSlice)%2 == 1 {
					r.traced = true
					tr = &reqTrace{req: i*clients + c}
					tr.add(-1, "client", "request", micros(at), 0)
				}
				t.do(c, i, tr, micros(at), &r)
				r.dur = now().Sub(start) - at
				if tr != nil {
					tr.spans[0].DurUS = micros(r.dur)
					w.traces = append(w.traces, tr.spans)
				}
				w.reqs = append(w.reqs, r)
			}
		}(c)
	}
	if background != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			background(start)
		}()
	}
	wg.Wait()
	out := &window{dur: dur, clients: clients}
	for _, w := range per {
		out.reqs = append(out.reqs, w.reqs...)
		out.traces = append(out.traces, w.traces...)
		out.calib = append(out.calib, w.calib...)
	}
	out.clock = newRefClock(out.calib, out.end())
	return out
}

// end is when the window's last reply arrived.
func (w *window) end() time.Duration {
	var end time.Duration
	for _, r := range w.reqs {
		end = max(end, r.start+r.dur)
	}
	return end
}

// refDur is a request's duration in reference time. The wait the
// program reports for its own coalescing timer is a fixed delay, not
// work, and passes at the wall clock's pace whatever the machine's speed.
func (w *window) refDur(r request) time.Duration {
	wait := min(r.wait, r.dur)
	if r.dur == wait {
		return r.dur
	}
	work := float64(w.clock.between(r.start, r.start+r.dur)) * float64(r.dur-wait) / float64(r.dur)
	return wait + time.Duration(work)
}

// qps is the queries answered per second of reference time: the clients
// are closed-loop, so each spends the window inside its requests, and
// the window's reference time is their requests' summed over clients.
func (w *window) qps() float64 {
	var answered float64
	var busy time.Duration
	for _, r := range w.reqs {
		busy += w.refDur(r)
		if r.err == nil {
			answered += float64(r.queries)
		}
	}
	return ratio(float64(w.clients)*answered, busy.Seconds())
}

// modeQPS is the closed-loop throughput of the traced or the untraced
// requests alone: clients x queries / time spent in such requests.
func (w *window) modeQPS(traced bool) float64 {
	var queries float64
	var busy time.Duration
	for _, r := range w.reqs {
		if r.traced == traced && r.err == nil {
			queries += float64(r.queries)
			busy += r.dur
		}
	}
	return ratio(float64(w.clients)*queries, busy.Seconds())
}

// latenciesMS returns the sorted request latencies in milliseconds of
// wall time.
func (w *window) latenciesMS() []float64 {
	out := make([]float64, 0, len(w.reqs))
	for _, r := range w.reqs {
		if r.err == nil {
			out = append(out, ms(r.dur))
		}
	}
	return sortedCopy(out)
}

// refLatenciesMS returns the sorted request latencies in milliseconds
// of reference time.
func (w *window) refLatenciesMS() []float64 {
	out := make([]float64, 0, len(w.reqs))
	for _, r := range w.reqs {
		if r.err == nil {
			out = append(out, ms(w.refDur(r)))
		}
	}
	return sortedCopy(out)
}

func (w *window) queries() (total float64) {
	for _, r := range w.reqs {
		total += float64(r.queries)
	}
	return total
}

// engineTarget calls the engine in-process, batch queries per request.
type engineTarget struct {
	eng     *engine.Engine
	queries []vec.Vector
	batch   int
	clients int
	owned   bool // close closes eng
}

func (t *engineTarget) do(c, i int, tr *reqTrace, originUS float64, r *request) {
	per := len(t.queries) / t.clients
	off := c*per + (i*t.batch)%per
	qs := t.queries[off : off+t.batch]
	var opts engine.SearchOptions
	if tr != nil {
		opts.Trace = obs.NewTrace()
	}
	start := now()
	res, st := t.eng.SearchBatchOpts(qs, k, opts)
	dur := now().Sub(start)
	r.queries, r.engine = len(qs), st.Latency
	for _, ns := range res {
		if len(ns) != k {
			r.err = fmt.Errorf("engine returned %d neighbours, want %d", len(ns), k)
		}
	}
	if len(res) != len(qs) {
		r.err = fmt.Errorf("engine answered %d of %d queries", len(res), len(qs))
	}
	if tr != nil {
		id := tr.add(0, "engine", "search_batch", originUS, micros(dur))
		tr.addStages(id, originUS, opts.Trace.Spans())
	}
}

func (t *engineTarget) search(qs []vec.Vector) ([][]ann.Neighbor, error) {
	out := make([][]ann.Neighbor, len(qs))
	for i, q := range qs {
		out[i] = t.eng.Search(q, k)
	}
	return out, nil
}

func (t *engineTarget) counters() (counters, error) {
	c := counters{shardSearches: t.eng.Stats().ShardSearches}
	if ps, ok := t.eng.PageStats(); ok {
		c.touches, c.faults, c.ioErrors = ps.Touches, ps.Faults, ps.IOErrors
	}
	return c, nil
}

func (t *engineTarget) close() error {
	if t.owned {
		t.eng.Close()
	}
	return nil
}

// openPaged loads the fixture's snapshot in mmap mode with a per-shard
// page cache of an eighth of the shard's pages.
func openPaged(f *fixture) (*engine.Engine, error) {
	probe, _, err := engine.LoadWithOptions(f.dir, engine.LoadOptions{Serve: engine.ServeMmap})
	if err != nil {
		return nil, err
	}
	ps, _ := probe.PageStats()
	probe.Close()
	perShard := int(math.Ceil(float64(ps.TotalPages) / shards))
	eng, _, err := engine.LoadWithOptions(f.dir, engine.LoadOptions{
		Serve: engine.ServeMmap, CachePages: int(math.Ceil(float64(perShard) / 8)),
	})
	return eng, err
}

// compaction describes one completed background compaction.
type compaction struct {
	dur     time.Duration
	vectors int
	bytes   int64 // size of the generation directory it wrote
}

// mutateTarget is one reader on an engine that an open-loop writer
// mutates while a background compactor drains the delta tier.
type mutateTarget struct {
	engineTarget
	comp   *engine.Compactor
	script *writeScript
	spare  []vec.Vector
	dir    string // private snapshot copy the generations land in

	writes   []writeResult
	shadows  []float64 // delta shadow-set size, sampled every 20 ms
	compacts []compaction
}

func openMutate(f *fixture, p profile, window time.Duration) (*mutateTarget, error) {
	// A second save is a private copy of the snapshot: compaction writes
	// its generations beside the manifest it loaded.
	dir := filepath.Join(f.work, "mutable")
	if err := f.eng.Save(dir); err != nil {
		return nil, err
	}
	// One worker: the reader's searches and the compactor's rebuilds then
	// keep one thread busy each, and the box has two CPUs.
	eng, _, err := engine.Load(dir, 1)
	if err != nil {
		return nil, err
	}
	return &mutateTarget{
		engineTarget: engineTarget{eng: eng, queries: f.queries, batch: 1, clients: 1, owned: true},
		comp:         engine.NewCompactor(eng, p.compactThreshold),
		script:       buildScript(f.seed, f.corpus, f.spare, p.writeRate, window),
		spare:        f.spare,
		dir:          dir,
	}, nil
}

// write replays the script open-loop from start, sampling the delta
// tier and the compactor beside it.
func (t *mutateTarget) write(start time.Time) {
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		t.sample(stop)
	}()
	t.writes = runOpenLoop(t.script.ops, wallClock{start}, func(op writeOp) error {
		if op.kind != deleteLive {
			return t.eng.Upsert(op.id, t.spare[op.spare])
		}
		wasLive, err := t.eng.Delete(op.id)
		if err == nil && !wasLive {
			err = fmt.Errorf("delete %d: the script's live ID was not live", op.id)
		}
		return err
	})
	close(stop)
	<-sampled
}

func (t *mutateTarget) sample(stop <-chan struct{}) {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	var seen int64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st := t.eng.MutStats()
		t.shadows = append(t.shadows, float64(st.DeltaLive+st.DeltaTombstones))
		if st.Compactions > seen {
			seen = st.Compactions
			c := compaction{dur: st.LastCompactDuration, vectors: st.LastCompactVectors}
			if name, ok, err := snapshot.ReadCurrent(t.dir); err == nil && ok {
				// A generation retired mid-walk reads as 0 bytes; the
				// next compaction's sample replaces the loss.
				c.bytes, _ = dirBytes(filepath.Join(t.dir, name))
			}
			t.compacts = append(t.compacts, c)
		}
	}
}

// close stops the compactor, letting a drain in flight finish, before
// the engine goes away.
func (t *mutateTarget) close() error {
	t.comp.Close()
	err := t.comp.LastErr()
	t.eng.Close()
	return err
}
