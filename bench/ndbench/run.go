package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/engine"
	"ndsearch/internal/vec"
)

// checker counts operations attempted and failed, and says why the
// first few failed.
type checker struct {
	attempted, failed int
	stdout            io.Writer
}

func (c *checker) op(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if c.failed <= 10 {
		fmt.Fprintf(c.stdout, "FAILED: %v\n", err)
	}
}

// open finishes the set-up of cfg's workload on fixture f and returns
// the target its clients drive.
func open(cfg config, f *fixture) (target, error) {
	switch cfg.workload {
	case "ram_batch":
		return &engineTarget{eng: f.eng, queries: f.queries, batch: batchSize, clients: 1}, nil
	case "http_single":
		srv, err := spawnServer(cfg.ndserve, f.dir)
		if err != nil {
			return nil, err
		}
		t, err := newHTTPTarget(srv, f.queries, httpClients)
		if err != nil {
			srv.stop()
		}
		return t, err
	case "paged_batch":
		eng, err := openPaged(f)
		if err != nil {
			return nil, err
		}
		return &engineTarget{eng: eng, queries: f.queries, batch: batchSize, clients: 1, owned: true}, nil
	case "mutate_mix":
		return openMutate(f, cfg.profile, cfg.window)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// setUp runs the whole set-up — generate, build, save, then load or
// spawn — and times it. An untraced run sets up profile.setups times
// and keeps the last; setup_s is the median.
func setUp(cfg config) (*fixture, target, float64, error) {
	setups := cfg.profile.setups
	if cfg.traced {
		setups = 1
	}
	// The write script draws one spare vector per upsert-new, half of
	// its writes; the rest of the spares feed overwrites.
	spare := int(cfg.profile.writeRate*cfg.window.Seconds()) + 1
	var (
		f     *fixture
		t     target
		times []float64
	)
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := t.close(); err != nil {
				f.close()
				return nil, nil, 0, err
			}
			f.close()
		}
		start := now()
		var err error
		if f, err = newFixture(cfg.profile, cfg.seed, spare, cfg.work); err != nil {
			return nil, nil, 0, err
		}
		if t, err = open(cfg, f); err != nil {
			f.close()
			return nil, nil, 0, err
		}
		times = append(times, now().Sub(start).Seconds())
	}
	return f, t, median(times), nil
}

// pinToOneCPU moves the harness, and the server it spawned, onto the
// first CPU they may use, and returns the call that undoes it. The
// set-ups use every CPU; the windows use one, so that the calibrations
// see the very CPU the program runs on: a workload here keeps one
// thread busy at a time, and the two vCPUs change speed independently.
// mutate_mix stays on both: its compactor rebuilds the index on the
// second CPU while the reader searches on the first. Where the kernel
// refuses, the run goes on unpinned and says so.
func pinToOneCPU(t target, stdout io.Writer) (unpin func()) {
	if _, ok := t.(*mutateTarget); ok {
		return func() {}
	}
	pids := []int{os.Getpid()}
	if ht, ok := t.(*httpTarget); ok {
		pids = append(pids, ht.srv.cmd.Process.Pid)
	}
	all, err := allowedCPUs()
	if err == nil {
		err = setAffinity(all.firstCPU(), pids...)
	}
	if err != nil {
		fmt.Fprintf(stdout, "not pinned to one CPU: %v\n", err)
		return func() {}
	}
	return func() { _ = setAffinity(all, pids...) }
}

// procUsage is the harness process's resource use at one moment.
type procUsage struct {
	cpu     time.Duration
	rssMB   float64
	gcPause time.Duration
}

func readProcUsage() (procUsage, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
		gcPause: time.Duration(ms.PauseTotalNs),
	}, nil
}

// heapLiveMB is the heap still reachable after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// run measures one workload once and checks its outputs.
func run(cfg config, stdout io.Writer) (*result, error) {
	f, t, setupS, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer f.close()
	closed := false
	defer func() {
		if !closed {
			t.close()
		}
	}()
	clients := 1
	var background func(time.Time)
	mt, mutating := t.(*mutateTarget)
	if mutating {
		background = mt.write
	}
	if _, ok := t.(*httpTarget); ok {
		clients = httpClients
	}

	runtime.GC() // the set-ups' garbage is not the workload's
	unpin := pinToOneCPU(t, stdout)
	defer unpin()
	warm := runWindow(t, clients, cfg.profile.warmup, false, nil)
	before, err := t.counters()
	if err != nil {
		return nil, err
	}
	use0, err := readProcUsage()
	if err != nil {
		return nil, err
	}
	w := runWindow(t, clients, cfg.window, cfg.traced, background)
	unpin()
	use1, err := readProcUsage()
	if err != nil {
		return nil, err
	}
	after, err := t.counters()
	if err != nil {
		return nil, err
	}
	m := metrics{}
	if cfg.traced {
		m["proc.cpu_ms_per_query"] = ratio(ms(use1.cpu-use0.cpu), w.queries())
		m["proc.gc_pause_ms_total"] = ms(use1.gcPause - use0.gcPause)
		m["proc.rss_peak_mb"] = use1.rssMB
		m["proc.heap_live_mb"] = heapLiveMB()
	}

	chk := &checker{stdout: stdout}
	for _, r := range w.reqs {
		chk.op(r.err)
	}
	sample := f.queries[:cfg.profile.sample]
	recall, err := checkAnswers(cfg, f, t, sample, chk)
	if err != nil {
		return nil, err
	}
	closed = true
	if err := t.close(); err != nil {
		chk.op(fmt.Errorf("shut down: %w", err))
	}
	if mutating && mt.comp.Runs() < 2 {
		chk.op(fmt.Errorf("only %d compactions completed; the run needs 2", mt.comp.Runs()))
	}

	lat := w.refLatenciesMS()
	fmt.Fprintf(stdout, "%-12s %d requests, %d queries; highest percentile with 10 samples beyond it: p%g\n",
		cfg.workload, len(lat), int(w.queries()), highestSupported(len(lat)))
	wall := w.latenciesMS()
	fmt.Fprintf(stdout, "%-12s on the wall clock: qps %.1f, lat_p50_ms %.3f, lat_p95_ms %.3f; reference seconds per second: median %.2f, p5 %.2f, p95 %.2f\n",
		cfg.workload, ratio(w.queries(), w.end().Seconds()), percentile(wall, 50), percentile(wall, 95),
		median(w.clock.factor), percentile(sortedCopy(w.clock.factor), 5), percentile(sortedCopy(w.clock.factor), 95))
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		layerMetrics(f, t, w, before, after, chk, m)
		if ht, ok := t.(*httpTarget); ok {
			// The child's whole life over everything it served.
			served := warm.queries() + w.queries() + float64(len(sample))
			m["ndserve.cpu_ms_per_query"] = ratio(ms(ht.cpu), served)
		}
		if err := runProbes(f, sample, m); err != nil {
			return nil, err
		}
		path, err := writeSpans(cfg.out, cfg.workload, w.traces)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%-12s spans written to %s\n", cfg.workload, path)
	} else {
		m["setup_s"] = setupS
		m["qps"] = w.qps()
		m["lat_p50_ms"] = percentile(lat, 50)
		m["lat_p95_ms"] = percentile(lat, 95)
		m["recall_at_10"] = recall
	}
	res := &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed}
	return res, emit(stdout, cfg.workload, defs, m, res)
}

// checkAnswers is the correctness gate of every run: the sample queries,
// answered through the workload's own path, against exact search over
// the vectors that are live. It returns the mean recall@k.
func checkAnswers(cfg config, f *fixture, t target, sample []vec.Vector, chk *checker) (float64, error) {
	live, ids := f.corpus, []uint32(nil)
	mt, mutating := t.(*mutateTarget)
	if mutating {
		live, ids = mt.script.finalVecs, mt.script.finalIDs
	}
	got, err := t.search(sample)
	if err != nil {
		return 0, err
	}
	want := truth(f.prof.Metric, live, ids, sample)
	liveIDs := make(map[uint32]bool, len(live))
	for i := range live {
		id := uint32(i)
		if ids != nil {
			id = ids[i]
		}
		liveIDs[id] = true
	}
	var recall float64
	for i := range sample {
		chk.op(wellFormed(got[i], liveIDs))
		recall += ann.Recall(got[i], want[i], k)
	}
	recall /= float64(len(sample))
	if recall < recallFloor {
		chk.op(fmt.Errorf("recall@%d %.4f is below the floor %.2f", k, recall, recallFloor))
	}
	if cfg.workload == "paged_batch" {
		for i, q := range sample {
			chk.op(identical(f.eng.Search(q, k), got[i]))
		}
	}
	if mutating {
		for _, wr := range mt.writes {
			err := wr.err
			if err == nil && wr.ack > writeAckLimit {
				err = fmt.Errorf("write acknowledged %v after it was due (limit %v)", wr.ack, writeAckLimit)
			}
			chk.op(err)
		}
	}
	return recall, nil
}

// wellFormed checks one answer: k neighbours, ascending by (distance,
// ID), no duplicates, and every ID live.
func wellFormed(ns []ann.Neighbor, live map[uint32]bool) error {
	if len(ns) != k {
		return fmt.Errorf("answer has %d neighbours, want %d", len(ns), k)
	}
	seen := make(map[uint32]bool, k)
	for i, n := range ns {
		switch {
		case !live[n.ID]:
			return fmt.Errorf("answer holds ID %d, which is not live", n.ID)
		case seen[n.ID]:
			return fmt.Errorf("answer holds ID %d twice", n.ID)
		case i > 0 && (n.Dist < ns[i-1].Dist || n.Dist == ns[i-1].Dist && n.ID < ns[i-1].ID):
			return fmt.Errorf("answer is not ascending at position %d", i)
		}
		seen[n.ID] = true
	}
	return nil
}

// identical reports whether two answers agree bit for bit.
func identical(want, got []ann.Neighbor) error {
	if len(want) != len(got) {
		return fmt.Errorf("paged answer has %d neighbours, resident %d", len(got), len(want))
	}
	for i := range want {
		if want[i].ID != got[i].ID || math.Float32bits(want[i].Dist) != math.Float32bits(got[i].Dist) {
			return fmt.Errorf("paged answer differs at %d: resident %+v, paged %+v", i, want[i], got[i])
		}
	}
	return nil
}

// layerMetrics fills the per-layer metrics the traced window supports:
// what the clients saw, what the program reported per request, the
// growth of its counters, and the spans.
func layerMetrics(f *fixture, t target, w *window, before, after counters, chk *checker, m metrics) {
	queries := w.queries()
	var selfMS, waitMS, formed, batchMS, reqB, respB []float64
	failed := 0
	for _, r := range w.reqs {
		if r.err != nil {
			failed++
			continue
		}
		batchMS = append(batchMS, ms(r.engine))
		reqB, respB = append(reqB, float64(r.reqBytes)), append(respB, float64(r.respBytes))
		if r.formed > 0 { // served through the batcher
			waitMS = append(waitMS, ms(r.wait))
			formed = append(formed, float64(r.formed))
			selfMS = append(selfMS, ms(r.dur-r.wait-r.engine))
		}
	}
	m["client.requests"] = float64(len(w.reqs))
	m["client.failed"] = float64(failed)
	m["client.lat_p99_ms"] = percentile(w.latenciesMS(), 99)
	m["engine.batch_ms_p50"] = percentile(sortedCopy(batchMS), 50)
	m["engine.shard_searches"] = float64(after.shardSearches - before.shardSearches)
	m["batcher.wait_ms_mean"] = mean(waitMS)
	m["batcher.wait_ms_p95"] = percentile(sortedCopy(waitMS), 95)
	m["batcher.formed_batch_mean"] = mean(formed)
	m["batcher.batches"] = float64(after.batcherBatches - before.batcherBatches)
	m["trace.overhead_ratio"] = ratio(w.modeQPS(true), w.modeQPS(false))
	var calibUS []float64
	for _, s := range w.calib {
		calibUS = append(calibUS, micros(s.cpu))
	}
	m["calib.samples"] = float64(len(calibUS))
	m["calib.cpu_us_p50"] = percentile(sortedCopy(calibUS), 50)
	m["calib.cpu_us_p95"] = percentile(sortedCopy(calibUS), 95)

	if ht, ok := t.(*httpTarget); ok {
		m["ndserve.self_ms_p50"] = percentile(sortedCopy(selfMS), 50)
		m["ndserve.req_bytes"] = mean(reqB)
		m["ndserve.resp_bytes"] = mean(respB)
		m["ndserve.spawn_to_ready_ms"] = ms(ht.srv.ready)
		m["ndserve.rss_peak_mb"] = ht.rssMB
	}
	if et, ok := t.(*engineTarget); ok && et.eng.ServeMode() != engine.ServeRAM {
		ps, _ := et.eng.PageStats()
		touches, faults := float64(after.touches-before.touches), float64(after.faults-before.faults)
		m["snapshot.touches_per_query"] = ratio(touches, queries)
		m["snapshot.faults_per_query"] = ratio(faults, queries)
		m["snapshot.hit_ratio"] = ratio(touches-faults, touches)
		m["snapshot.resident_bytes"] = float64(ps.ResidentPages) * float64(ps.PageSize)
		m["snapshot.io_errors"] = float64(after.ioErrors - before.ioErrors)
		m["snapshot.corpus_over_cache"] = ratio(float64(ps.TotalPages), float64(ps.CachePages))
	}
	if mt, ok := t.(*mutateTarget); ok {
		mutateMetrics(f, mt, w, m)
	}
	workers := runtime.GOMAXPROCS(0) // ndserve's default
	switch t := t.(type) {
	case *engineTarget:
		workers = t.eng.Workers()
	case *mutateTarget:
		workers = t.eng.Workers()
	}
	spanMetrics(w.traces, workers, chk, m)
}

// mutateMetrics fills the write-path metrics of mutate_mix.
func mutateMetrics(f *fixture, mt *mutateTarget, w *window, m metrics) {
	var upsertUS, deleteUS, lateMS, callMS []float64
	for _, wr := range mt.writes {
		lateMS = append(lateMS, ms(wr.late))
		callMS = append(callMS, ms(wr.call))
		if wr.kind == deleteLive {
			deleteUS = append(deleteUS, micros(wr.call))
		} else {
			upsertUS = append(upsertUS, micros(wr.call))
		}
	}
	m["client.write_late_p95_ms"] = percentile(sortedCopy(lateMS), 95)
	m["engine.upsert_us_p50"] = percentile(sortedCopy(upsertUS), 50)
	m["engine.upsert_us_p95"] = percentile(sortedCopy(upsertUS), 95)
	m["engine.delete_us_p50"] = percentile(sortedCopy(deleteUS), 50)
	m["engine.write_stall_max_ms"] = maxOf(callMS)
	m["engine.read_max_ms"] = maxOf(w.latenciesMS())
	m["delta.shadow_mean"] = mean(mt.shadows)
	m["delta.shadow_max"] = maxOf(mt.shadows)
	m["engine.k_base_mean"] = k + mean(mt.shadows)

	var compactS, compactVecs, genBytes []float64
	for _, c := range mt.compacts {
		compactS = append(compactS, c.dur.Seconds())
		compactVecs = append(compactVecs, float64(c.vectors))
		genBytes = append(genBytes, float64(c.bytes))
	}
	m["engine.compactions"] = float64(mt.comp.Runs())
	m["engine.compact_s_mean"] = mean(compactS)
	m["engine.compact_vectors_mean"] = mean(compactVecs)
	m["snapshot.generations"] = float64(mt.eng.Generation())
	m["snapshot.gen_bytes_written_per_user_byte"] = ratio(sum(genBytes), float64(userBytes(f, len(upsertUS))))
}

// spanMetrics fills the metrics that come from the traced requests'
// spans, and checks that every request's layer self times add up to the
// request's own span within 5%.
func spanMetrics(traces [][]span, workers int, chk *checker, m metrics) {
	stageUS := map[string][]float64{} // stage → duration of every span
	var engineSelf, shardSumMS []float64
	var spans float64
	for _, tr := range traces {
		self, total := attribute(tr)
		var err error
		if root := tr[0].DurUS; math.Abs(total-root) > 0.05*root {
			err = fmt.Errorf("request %d: layer self times sum to %.0f us, its span is %.0f us", tr[0].Req, total, root)
		}
		chk.op(err)
		engineSelf = append(engineSelf, self["engine"]/1e3)
		var shardSum float64
		for _, s := range tr {
			stageUS[s.Name] = append(stageUS[s.Name], s.DurUS)
			if s.Name == "shard_search" {
				shardSum += s.DurUS
			}
		}
		shardSumMS = append(shardSumMS, shardSum/1e3)
		spans += float64(len(tr))
	}
	shardBusy, fanoutWall := sum(stageUS["shard_search"]), sum(stageUS["fanout"])
	// Every query of a traced engine batch is searched on each shard.
	tracedQueries := float64(len(stageUS["shard_search"])) / shards
	m["engine.fanout_ms_mean"] = mean(stageUS["fanout"]) / 1e3
	m["engine.shard_search_ms_sum_mean"] = mean(shardSumMS)
	m["engine.worker_util"] = ratio(shardBusy, fanoutWall*float64(workers))
	m["engine.merge_ms_mean"] = mean(stageUS["merge"]) / 1e3
	m["engine.self_ms_mean"] = mean(engineSelf)
	m["engine.merge_delta_ms_mean"] = mean(stageUS["merge_delta"]) / 1e3
	m["engine.merge_frozen_ms_mean"] = mean(stageUS["merge_frozen"]) / 1e3
	m["engine.merge_base_ms_mean"] = mean(stageUS["merge_base"]) / 1e3
	m["delta.scan_us_per_query"] = ratio(sum(stageUS["merge_delta"])+sum(stageUS["merge_frozen"]), tracedQueries)
	m["trace.spans"] = spans
}
