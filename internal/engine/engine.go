// Package engine is the production-shaped serving layer over the ANNS
// indexes: it partitions a corpus across N shards (one ann.Index per
// shard), fans query batches out to a persistent bounded worker pool
// (started in New, stopped by Close), merges the per-shard top-k lists
// with the ann candidate-list machinery, and reports per-batch
// latency/throughput statistics in the same shape as core.Result.
//
// The shard set is generational (DESIGN.md §12): an immutable base
// generation — built in-process or restored from a snapshot — serves
// reads, while a small mutable delta tier (internal/delta) absorbs
// Upsert/Delete traffic. Every engine, built or loaded, has both the
// delta (over its shards' metric) and a shard builder. Each shard search
// skips base vertices the delta shadows inside its traversal (they
// route but are never returned), so every shard searches at k, and the
// merge fold re-checks the base lists against the same tombstone set to
// catch a write that landed mid-batch; top-k stays exact over the merged
// corpus, and an engine that has taken no writes returns results
// byte-identical to the pre-generational engine. Compact drains the
// delta into a freshly built generation and swaps it in behind the
// search path (atomic CURRENT rename on disk, write-lock swap in
// memory), retiring the old generation after in-flight searches drain.
//
// Sharding is contiguous, so a shard's local vertex i is global
// position base+i; generation 0 positions are the global IDs, and
// compacted generations carry an explicit position→external-ID table.
//
// The engine is the architectural seam the ROADMAP's scaling work builds
// on: cmd/ndserve serves HTTP traffic from it, examples/serving drives
// open-loop load through it, and later PRs can swap shard indexes or
// distribute shards without touching callers.
package engine

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/delta"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/ivfpq"
	"ndsearch/internal/obs"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// Builder constructs the index of one shard from its slice of the
// corpus. shard is the shard ordinal (usable to diversify seeds); the
// data slice aliases the engine's partition and must not be mutated.
type Builder func(shard int, data []vec.Vector) (ann.Index, error)

// Config parameterises engine construction.
type Config struct {
	// Shards is the partition count (>= 1). Shards exceeding the corpus
	// size are clamped so no shard is empty.
	Shards int
	// Workers bounds in-flight shard searches engine-wide (shared by
	// all concurrent SearchBatch callers) and concurrent shard builds.
	// Defaults to GOMAXPROCS.
	Workers int
	// Builder constructs each shard's index. Required. Compact reuses it
	// to rebuild the base generation over the merged corpus.
	Builder Builder
	// Meta is optional provenance recorded by Save in the snapshot
	// manifest; it does not affect construction or search.
	Meta Meta
}

// Meta is caller-supplied provenance for snapshots: which algorithm and
// seed built the shards, which dataset the corpus came from, and the
// at-rest element kind snapshots should use (vec.F32, the zero value, is
// always lossless; U8/I8 require exactly-representable components,
// which generated corpora satisfy). Save records Dataset and Seed in
// the manifest and writes the shard files in Elem; Algo is recorded
// nowhere — each file's header names its own family — so a non-empty
// Algo is only checked, and one that disagrees with the shards fails
// the Save. A loaded engine's Algo and Elem come from the shard
// headers.
type Meta struct {
	Algo    string
	Dataset string
	Seed    int64
	Elem    vec.ElemKind
}

func (c *Config) normalize(n int) error {
	if c.Builder == nil {
		return fmt.Errorf("engine: Config.Builder is required")
	}
	if c.Shards < 1 {
		return fmt.Errorf("engine: Shards must be >= 1, got %d", c.Shards)
	}
	if n < 1 {
		return fmt.Errorf("engine: empty corpus")
	}
	if c.Shards > n {
		c.Shards = n
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// shard is one partition: a built index plus its global-position base
// offset within its generation, and — on the paged serving path — the
// open snapshot handle serving the index, for page counters and Close
// (nil when the shard is resident).
type shard struct {
	index ann.Index
	base  uint32
	paged *snapshot.PagedIndex
}

// closePaged releases the paged shards' mappings and file handles;
// resident shards hold none. No search may still be running on them.
func closePaged(shards []shard) {
	for _, sh := range shards {
		if sh.paged != nil {
			_ = sh.paged.Close()
		}
	}
}

// generation is one base of the generational shard set: built shards,
// the position→external-ID translation (nil when positions are the IDs,
// as in generation 0 of a fresh build), and the in-traversal shadow
// bitset. Its shards and ID table are never mutated after the engine
// starts serving it (compaction replaces the whole value); only shadow
// bits are set, and never cleared.
type generation struct {
	// num is the generation number: 0 for the initial build, then
	// incremented per compaction. On a snapshot-backed engine it also
	// names the generation's directory (snapshot.GenerationName).
	num    int
	shards []shard
	// ids maps global position to external vector ID, strictly
	// ascending; nil means identity (position == ID), which is also the
	// fast path the pure-read engine stays on.
	ids []uint32
	// vectors is the base row count (sum of shard lengths).
	vectors int
	// shadow holds one bit per base position, set exactly when the delta
	// tier shadows that position's external ID: the shard searches' skip
	// predicate reads it lock-free, with no ID translation and no map.
	// Upsert and Delete set a bit (atomic Or, under writeMu) where they
	// count a new base tombstone; the compaction swap fills a new
	// generation's bits from the delta's shadow set before any search
	// sees it. Within a generation the shadow set over base IDs only
	// grows, so a bit is never cleared. It is sized by the generation
	// (1 bit per base vector), never by an external ID.
	shadow []atomic.Uint64
	// perShard counts executed (query, shard) searches per shard
	// (load-skew telemetry); it lives on the generation because the
	// shard count can change across compactions.
	perShard []atomic.Int64
}

// newGeneration assembles generation num over built shards, sizing its
// per-shard counters by the shard count and its shadow bitset by the
// base row count.
func newGeneration(num int, shards []shard, ids []uint32, vectors int) *generation {
	return &generation{
		num:      num,
		shards:   shards,
		ids:      ids,
		vectors:  vectors,
		shadow:   make([]atomic.Uint64, (vectors+63)/64),
		perShard: make([]atomic.Int64, len(shards)),
	}
}

// extID translates a global position to its external ID.
func (g *generation) extID(pos uint32) uint32 {
	if g.ids == nil {
		return pos
	}
	return g.ids[pos]
}

// position returns external ID id's global position, and whether the
// base generation holds id at all.
func (g *generation) position(id uint32) (uint32, bool) {
	if g.ids == nil {
		return id, uint64(id) < uint64(g.vectors)
	}
	i, ok := slices.BinarySearch(g.ids, id)
	return uint32(i), ok
}

// has reports whether external ID id exists in the base generation.
func (g *generation) has(id uint32) bool {
	_, ok := g.position(id)
	return ok
}

// shadowed reports whether the delta shadows the vector at global
// position pos.
func (g *generation) shadowed(pos uint32) bool {
	return g.shadow[pos/64].Load()&(1<<(pos%64)) != 0
}

// setShadowed marks global position pos shadowed.
func (g *generation) setShadowed(pos uint32) {
	g.shadow[pos/64].Or(1 << (pos % 64))
}

// Engine is a sharded, concurrency-safe batch-search engine with live
// mutability. Its worker pool is persistent: New starts Workers
// goroutines that drain a shared task channel until Close, so
// SearchBatch pays no per-call goroutine setup and the Workers bound
// holds engine-wide across concurrent callers by construction.
//
// Concurrency contract: SearchBatch/Search hold genMu read-locked for
// the whole batch; Upsert/Delete and Compact's capture hold writeMu
// alone (writes mutate only the delta tier, behind its own lock); and
// Compact's swap takes writeMu and then genMu write-locked — so a
// generation swap waits for in-flight searches to drain, no search ever
// observes a half-swapped shard set, and anything holding writeMu sees
// a stable gen.
type Engine struct {
	workers int
	dim     int
	meta    Meta

	// genMu guards gen (replaced only under writeMu too) and brackets
	// in-flight searches; see the contract above.
	genMu sync.RWMutex
	gen   *generation
	// delta absorbs writes; it is set once at construction, over the
	// shards' metric.
	delta *delta.Index

	// writeMu serializes mutators (Upsert/Delete) and compaction's
	// capture/swap sections, so the live-count and tombstone counters
	// stay consistent with the layered membership they summarize.
	writeMu sync.Mutex

	// liveLen is the current live vector count across base and delta;
	// baseTombs counts base entries shadowed by the delta tier.
	liveLen   atomic.Int64
	baseTombs atomic.Int64

	// builder rebuilds shards at compaction; reqShards is the configured
	// shard count compaction re-partitions to; genDir is the on-disk
	// generation root ("" = in-memory).
	builder   Builder
	reqShards int
	genDir    string

	// compacting is the single-flight guard for Compact.
	compacting atomic.Bool

	// tasks feeds the persistent worker pool; SearchBatch callers
	// enqueue one run per (shard, batch slice).
	tasks chan run
	// wg tracks the pool goroutines so Close can wait for them.
	wg        sync.WaitGroup
	closeOnce sync.Once

	// serveMode is the shard serving mode: ServeRAM for builds and plain
	// loads, which decode shards fully resident; the paged backend for
	// paged loads (LoadOptions.Serve), which traverse node records
	// through a bounded page cache over the snapshot files.
	serveMode string

	// m holds the obs instruments (obs.go), the engine's only serving
	// counters. The atomics beside them carry what no instrument gives
	// back exactly; the durations are nanoseconds.
	m                  engineMetrics
	busy               atomic.Int64
	maxBatchLatency    atomic.Int64
	lastCompactDur     atomic.Int64
	lastCompactVectors atomic.Int64

	// notifyC, when set (setNotify), is poked non-blockingly after every
	// accepted mutation — the compactor's wakeup signal. Guarded by
	// writeMu, which every mutator already holds.
	notifyC chan<- struct{}
}

// run is one shard searched for a contiguous range [lo, hi) of a
// batch's queries, back to back by one worker, so the shard's rows and
// adjacency stay in that worker's cache across the range. Each (query,
// shard) search in the run owns a distinct result slot, out[qi*S+si]
// for S shards, so workers need no locking; done releases the waiting
// caller once per run. The run carries its generation so a batch in
// flight across a compaction swap keeps searching the generation it
// started on. skip is the shard's tombstone predicate over its local
// IDs (nil when the batch started with an empty shadow set): a read of
// the generation's shadow bitset at the shard's base offset. tr records
// one shard_search span per (query, shard) search (tr is nil on
// untraced batches).
type run struct {
	queries []vec.Vector
	lo, hi  int
	k       int
	gen     *generation
	si      int
	skip    func(local uint32) bool
	tr      *obs.Trace
	out     [][]ann.Neighbor
	done    *sync.WaitGroup
}

// Partition splits n items into parts contiguous ranges as evenly as
// possible and returns the part boundaries: offsets[i]..offsets[i+1] is
// part i, len(offsets) == parts+1. parts is clamped to [1, n] (to 1
// when n == 0), so no returned range is ever empty for a non-empty
// input — direct callers get the same guarantee Config.normalize gives
// the engine and cannot build empty shards.
func Partition(n, parts int) []int {
	if parts < 1 || n == 0 {
		parts = 1
	} else if parts > n {
		parts = n
	}
	offsets := make([]int, parts+1)
	for i := 1; i <= parts; i++ {
		offsets[i] = offsets[i-1] + n/parts
		if i <= n%parts {
			offsets[i]++
		}
	}
	return offsets
}

// New partitions data across cfg.Shards contiguous shards, builds each
// shard's index (concurrently, bounded by cfg.Workers), and starts the
// persistent worker pool. Call Close when done with the engine to stop
// the pool.
func New(data []vec.Vector, cfg Config) (*Engine, error) {
	if err := cfg.normalize(len(data)); err != nil {
		return nil, err
	}
	shards, err := buildShards(data, cfg.Shards, cfg.Workers, cfg.Builder)
	if err != nil {
		return nil, err
	}
	gen := newGeneration(0, shards, nil, len(data))
	e := newEngine(gen, cfg.Workers, len(data[0]), cfg.Meta, cfg.Builder)
	e.reqShards = cfg.Shards
	return e, nil
}

// buildShards partitions data and builds one index per partition,
// concurrently, bounded by workers.
func buildShards(data []vec.Vector, shards, workers int, builder Builder) ([]shard, error) {
	offsets := Partition(len(data), shards)
	out := make([]shard, shards)
	err := fanOut(shards, workers, func(i int) error {
		idx, err := builder(i, data[offsets[i]:offsets[i+1]])
		if err != nil {
			return fmt.Errorf("engine: shard %d: %w", i, err)
		}
		out[i] = shard{index: idx, base: uint32(offsets[i])}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut runs do(i) for every i in [0, n), at most workers at a time,
// waits for all of them, and returns the first error in index order.
func fanOut(n, workers int, do func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = do(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newEngine assembles an engine around an already-built base generation
// (at least one shard), stands up the mutable delta tier over the
// shards' metric, and starts the persistent worker pool — shared by New
// (cold build) and Load (snapshot warm-start); Compact reuses only the
// shard-building half.
func newEngine(gen *generation, workers, dim int, meta Meta, builder Builder) *Engine {
	e := &Engine{
		gen:     gen,
		delta:   delta.New(gen.shards[0].index.Metric(), dim),
		workers: workers,
		dim:     dim,
		meta:    meta,
		builder: builder,
		// Load switches a paged engine to its backend.
		serveMode: ServeRAM,
		// A modest buffer decouples task producers from worker pickup
		// without letting one huge batch monopolise the queue.
		tasks: make(chan run, 4*workers),
		m:     newEngineMetrics(),
	}
	e.liveLen.Store(int64(gen.vectors))
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// worker drains the shared task channel until Close closes it.
func (e *Engine) worker() {
	defer e.wg.Done()
	for r := range e.tasks {
		sh := r.gen.shards[r.si]
		// Tracing observes around each search without touching it: span
		// timestamps come from obs, and on the paged serving path the
		// shard's software page counters are windowed so the span carries
		// the touches/faults this search consumed (approximate under
		// concurrent traffic — the counters are shared per shard).
		var paged *snapshot.PagedIndex
		if r.tr != nil {
			paged = sh.paged
		}
		for qi := r.lo; qi < r.hi; qi++ {
			sp := r.tr.Span("shard_search")
			var before snapshot.PagedStats
			if paged != nil {
				before = paged.Stats()
			}
			res := sh.index.SearchFilter(r.queries[qi], r.k, r.skip)
			// Translate shard-local IDs to global positions, then to
			// external IDs, in place on the freshly returned slice. The
			// identity-table fast path keeps pure-read results byte-equal
			// to the pre-generational engine.
			for i := range res {
				res[i].ID = r.gen.extID(res[i].ID + sh.base)
			}
			if paged != nil {
				after := paged.Stats()
				sp.Pages(after.Touches-before.Touches, after.Faults-before.Faults)
			}
			sp.Shard(r.si).Query(qi).End()
			r.out[qi*len(r.gen.shards)+r.si] = res
			r.gen.perShard[r.si].Add(1)
		}
		r.done.Done()
	}
}

// Close stops the worker pool, waits for the workers to exit, and (on
// the paged serving path) releases the current generation's mappings
// and file handles. It is idempotent. SearchBatch, Search, Upsert,
// Delete, and Compact must not be called after (or concurrently with)
// Close.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		close(e.tasks)
		e.wg.Wait()
		// Workers have drained, so no search can touch a paged store now.
		closePaged(e.gen.shards)
	})
}

// Shards returns the current generation's shard count.
func (e *Engine) Shards() int {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return len(e.gen.shards)
}

// Len returns the current live vector count: base vectors not shadowed
// by a tombstone, plus delta vectors.
func (e *Engine) Len() int { return int(e.liveLen.Load()) }

// Dim returns the corpus dimensionality.
func (e *Engine) Dim() int { return e.dim }

// Workers returns the worker-pool bound.
func (e *Engine) Workers() int { return e.workers }

// ServeMode reports how the shards serve node data: ServeRAM (fully
// resident), or ServeMmap / ServeReadAt when the engine was loaded with
// a paged LoadOptions.Serve. On the paged path this is the backend
// actually in use — a requested mmap that fell back to positioned reads
// (unsupported platform) reports ServeReadAt.
func (e *Engine) ServeMode() string { return e.serveMode }

// PageStats aggregates the software page counters across all paged
// shards. ok is false when the engine serves from RAM (no paged
// shards), in which case the stats are zero. Touches, Faults, IOErrors,
// ResidentPages, CachePages, and TotalPages are sums over the shards;
// PageSize is the (uniform) page quantum.
func (e *Engine) PageStats() (agg snapshot.PagedStats, ok bool) {
	e.genMu.RLock()
	shards := e.gen.shards
	e.genMu.RUnlock()
	for _, sh := range shards {
		if sh.paged == nil {
			continue
		}
		ok = true
		st := sh.paged.Stats()
		agg.Touches += st.Touches
		agg.Faults += st.Faults
		agg.IOErrors += st.IOErrors
		agg.ResidentPages += st.ResidentPages
		agg.CachePages += st.CachePages
		agg.TotalPages += st.TotalPages
		agg.PageSize = st.PageSize
	}
	return agg, ok
}

// Search returns the merged approximate top-k neighbors of one query
// (external IDs). It is a batch of one; use SearchBatch for throughput.
func (e *Engine) Search(query vec.Vector, k int) []ann.Neighbor {
	res, _ := e.SearchBatch([]vec.Vector{query}, k)
	if len(res) == 0 {
		return nil
	}
	return res[0]
}

// BatchStats reports one batch execution, mirroring the latency and
// throughput fields of core.Result so serving dashboards can consume
// either source.
type BatchStats struct {
	// BatchSize is the query count of the batch.
	BatchSize int
	// Shards and Workers echo the engine configuration.
	Shards, Workers int
	// Latency is the wall-clock batch execution time.
	Latency time.Duration
	// QPS is BatchSize / Latency.
	QPS float64
	// ShardSearches is the number of (query, shard) searches executed.
	ShardSearches int
}

// SearchBatch fans the batch out to the worker pool as runs (one shard,
// a contiguous slice of the queries), merges each query's per-shard
// top-k lists with the delta tier under the tombstone filter, and returns the merged results (external
// IDs, ascending by distance) plus batch stats. It is safe for
// concurrent use, including concurrently with Upsert/Delete/Compact.
func (e *Engine) SearchBatch(queries []vec.Vector, k int) ([][]ann.Neighbor, *BatchStats) {
	return e.SearchBatchOpts(queries, k, SearchOptions{})
}

// SearchBatchOpts is SearchBatch with per-call options: an optional
// stage trace recording fanout, per-shard, and merge spans. Results are
// byte-identical to SearchBatch — tracing only observes. Every (query,
// shard) search runs at k: when the delta shadows anything, the shard
// search skips shadowed base vertices inside its traversal rather than
// over-fetching and dropping them afterwards. The skip test is a bit in
// the generation's shadow bitset (no ID translation, no delta lock); the
// merge fold's re-check of at most k entries per shard stays on the
// delta's own Shadows.
func (e *Engine) SearchBatchOpts(queries []vec.Vector, k int, opts SearchOptions) ([][]ann.Neighbor, *BatchStats) {
	tr := opts.Trace
	//ndvet:ignore determinism wall time feeds only latency fields in BatchStats, never results
	start := time.Now()
	// The read lock brackets the whole batch: a compaction swap waits
	// for it, so gen and the delta are a consistent pair throughout.
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	gen, dlt := e.gen, e.delta
	st := &BatchStats{
		BatchSize: len(queries),
		Shards:    len(gen.shards),
		Workers:   e.workers,
	}
	if len(queries) == 0 || k <= 0 {
		st.Latency = time.Since(start)
		return nil, st
	}

	// A batch that starts with shadows hands every shard the tombstone
	// predicate over its local IDs — one lock-free bit read in the
	// generation's shadow bitset — so a shadowed base vertex still routes
	// the traversal but never enters the shard's result list, and each
	// shard's top-k is already its top-k live vectors. With no shadows
	// (the pure-read path) the shard search is the unfiltered one and
	// results stay byte-identical.
	mutated := dlt.ShadowCount() > 0
	var skips []func(uint32) bool
	if mutated {
		skips = make([]func(uint32) bool, len(gen.shards))
		for si, sh := range gen.shards {
			skips[si] = func(local uint32) bool { return gen.shadowed(local + sh.base) }
		}
	}

	// The batch is cut into min(Workers, len(queries)) contiguous slices,
	// enqueued slice-major, shard-minor: slice 0 on shards 0…S−1, then
	// slice 1, and so on. While Workers ≤ S, concurrent runs sit on
	// different shards (no added contention on a paged shard's cache
	// lock); each worker gets about S runs; and a batch of one query is
	// exactly S searches. partial[qi*S+si] is query qi's top-k from shard
	// si. The done WaitGroup pairs this call with exactly its own runs on
	// the shared pool.
	nsh := len(gen.shards)
	slices := Partition(len(queries), e.workers)
	partial := make([][]ann.Neighbor, len(queries)*nsh)
	fanout := tr.Span("fanout")
	var done sync.WaitGroup
	done.Add((len(slices) - 1) * nsh)
	for i := 1; i < len(slices); i++ {
		for si := range gen.shards {
			r := run{queries: queries, lo: slices[i-1], hi: slices[i], k: k, gen: gen, si: si, tr: tr, out: partial, done: &done}
			if mutated {
				r.skip = skips[si]
			}
			e.tasks <- r
		}
	}
	done.Wait()
	fanout.End()

	merge := tr.Span("merge")
	out := make([][]ann.Neighbor, len(queries))
	for qi := range queries {
		out[qi] = mergeGenerational(queries[qi], partial[qi*nsh:(qi+1)*nsh], k, dlt, mutated, tr, qi)
	}
	merge.End()
	st.ShardSearches = len(queries) * nsh
	st.Latency = time.Since(start)
	if st.Latency > 0 {
		st.QPS = float64(st.BatchSize) / st.Latency.Seconds()
	}
	e.record(st)
	return out, st
}

// mergeGenerational folds one query's per-shard base lists and the
// delta tier into the exact top-k under the ann (distance, ID) total
// order. Tier order matters for concurrent dup-safety: the delta is
// searched first, then the base lists are re-checked against its
// shadows. The shard searches already skipped every ID shadowed when
// they ran, so the re-check (over at most k entries per shard) only
// catches a write that landed between a traversal and this fold.
// Within a generation the shadow set over base IDs only grows, so an ID
// admitted from the delta is guaranteed filtered from the base even if
// a concurrent writer landed it between the folds; a write racing the
// other direction at worst hides the ID for that one query — the
// serializable outcome of searching mid-write.
//
// With no shadows (mutated == false, the pure-read path) the fold is
// ann.MergeTopK — byte-identical to the
// pre-generational engine's merge. tr/qi record per-tier fold spans on
// a traced, mutated batch (nil tr records nothing).
func mergeGenerational(query vec.Vector, base [][]ann.Neighbor, k int,
	dlt *delta.Index, mutated bool, tr *obs.Trace, qi int) []ann.Neighbor {
	if !mutated {
		return ann.MergeTopK(base, k)
	}
	f := ann.NewFrontier(k)
	sp := tr.Span("merge_delta")
	for _, n := range dlt.Search(query, k) {
		f.PushResult(n)
	}
	sp.Query(qi).End()
	sp = tr.Span("merge_base")
	for _, list := range base {
		for _, n := range list {
			if !dlt.Shadows(n.ID) {
				f.PushResult(n)
			}
		}
	}
	sp.Query(qi).End()
	return f.Results()
}

// Stats are cumulative serving counters (the /stats endpoint payload).
type Stats struct {
	// Batches and Queries count completed batch executions and the
	// queries they carried.
	Batches, Queries int64
	// ShardSearches counts executed (query, shard) searches.
	ShardSearches int64
	// Busy is the summed wall-clock batch latency.
	Busy time.Duration
	// MaxBatchLatency is the slowest batch seen.
	MaxBatchLatency time.Duration
	// PerShardSearches counts executed (query, shard) searches per shard
	// of the current generation, so partition skew is observable.
	// Per-shard counters tick as searches complete while the batch
	// totals above update once per batch, so a snapshot taken mid-batch
	// may show their sum ahead of ShardSearches; they restart at zero
	// when a compaction installs a new generation.
	PerShardSearches []int64
}

// MeanQueryLatency returns Busy spread over completed queries.
func (s Stats) MeanQueryLatency() time.Duration {
	if s.Queries == 0 {
		return 0
	}
	return time.Duration(int64(s.Busy) / s.Queries)
}

// record counts one completed batch, lock-free, before SearchBatchOpts
// returns: a caller holding results is already counted on both surfaces.
func (e *Engine) record(st *BatchStats) {
	e.m.searchLatency.Observe(st.Latency.Seconds())
	e.m.batchSize.Observe(float64(st.BatchSize))
	e.m.batches.Add(1)
	e.m.queries.Add(uint64(st.BatchSize))
	e.m.shardSearches.Add(uint64(st.ShardSearches))
	e.busy.Add(int64(st.Latency))
	obs.StoreMax(&e.maxBatchLatency, int64(st.Latency))
}

// Stats returns a snapshot of the cumulative counters, read from the
// same instruments /metrics renders.
func (e *Engine) Stats() Stats {
	st := Stats{
		Batches:         int64(e.m.batches.Value()),
		Queries:         int64(e.m.queries.Value()),
		ShardSearches:   int64(e.m.shardSearches.Value()),
		Busy:            time.Duration(e.busy.Load()),
		MaxBatchLatency: time.Duration(e.maxBatchLatency.Load()),
	}
	e.genMu.RLock()
	gen := e.gen
	e.genMu.RUnlock()
	st.PerShardSearches = make([]int64, len(gen.perShard))
	for i := range gen.perShard {
		st.PerShardSearches[i] = gen.perShard[i].Load()
	}
	return st
}

// IndexOpts selects the optional SQ8 compressed-traversal mode for the
// graph-family shard builders: Quantized turns it on, Rerank is the
// exact-rerank width (0 = full candidate list). See hnsw.Config.
type IndexOpts struct {
	Quantized bool
	Rerank    int
}

// builderFactory constructs a family's shard Builder bound to a metric,
// seed, and quantization opts.
type builderFactory func(m vec.Metric, seed int64, opts IndexOpts) (Builder, error)

// builders is the shard-family registry. It covers every family the
// snapshot codec registry saves, under the name the codec records
// (TestAlgosCoverSnapshotRegistry): the flat families exact and ivfpq,
// and the graph families hnsw, diskann (Vamana), hcnng, and togg. Every
// entry starts from its family's DefaultConfig, the one recipe the
// figure suite builds with too; shard i is built with seed seed+i.
// Algos derives the documented name list from this map, so the two can
// never drift apart again.
var builders = map[string]builderFactory{
	"exact": func(m vec.Metric, _ int64, opts IndexOpts) (Builder, error) {
		if opts.Quantized {
			return nil, fmt.Errorf("engine: algorithm %q has no quantized mode", "exact")
		}
		return func(_ int, data []vec.Vector) (ann.Index, error) {
			return ann.NewExact(m, data), nil
		}, nil
	},
	"hnsw": func(m vec.Metric, seed int64, opts IndexOpts) (Builder, error) {
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			cfg := hnsw.DefaultConfig(m)
			cfg.Seed, cfg.Quantized, cfg.Rerank = seed+int64(shard), opts.Quantized, opts.Rerank
			return hnsw.Build(data, cfg)
		}, nil
	},
	"diskann": func(m vec.Metric, seed int64, opts IndexOpts) (Builder, error) {
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			cfg := vamana.DefaultConfig(m)
			cfg.Seed, cfg.Quantized, cfg.Rerank = seed+int64(shard), opts.Quantized, opts.Rerank
			return vamana.Build(data, cfg)
		}, nil
	},
	"hcnng": func(m vec.Metric, seed int64, opts IndexOpts) (Builder, error) {
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			cfg := hcnng.DefaultConfig(m)
			cfg.Seed, cfg.Quantized, cfg.Rerank = seed+int64(shard), opts.Quantized, opts.Rerank
			return hcnng.Build(data, cfg)
		}, nil
	},
	"togg": func(m vec.Metric, seed int64, opts IndexOpts) (Builder, error) {
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			cfg := togg.DefaultConfig(m)
			cfg.Seed, cfg.Quantized, cfg.Rerank = seed+int64(shard), opts.Quantized, opts.Rerank
			return togg.Build(data, cfg)
		}, nil
	},
	"ivfpq": func(m vec.Metric, seed int64, opts IndexOpts) (Builder, error) {
		if opts.Quantized {
			return nil, fmt.Errorf("engine: algorithm %q is already compressed-domain; it has no SQ8 mode", "ivfpq")
		}
		if m != vec.L2 {
			return nil, fmt.Errorf("engine: algorithm %q supports only the L2 metric", "ivfpq")
		}
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			cfg := ivfpq.DefaultConfig()
			cfg.Seed = seed + int64(shard)
			// DefaultConfig's segment count must divide the corpus dim;
			// fall back through the powers of two so any dim builds.
			if len(data) > 0 {
				for cfg.Segments > 1 && len(data[0])%cfg.Segments != 0 {
					cfg.Segments /= 2
				}
			}
			return ivfpq.Build(data, cfg)
		}, nil
	},
}

// Algos returns the registered shard-family names, sorted — the single
// source for flag help and error text.
func Algos() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuilderByName returns a shard-index Builder for a named algorithm.
// Every family in the snapshot codec registry is available — the list
// is Algos(): exact, hcnng, hnsw, ivfpq, togg, and diskann (the Vamana
// graph). Seeds are diversified per shard so replica graphs are not
// identical.
func BuilderByName(algo string, m vec.Metric, seed int64) (Builder, error) {
	return BuilderWithOpts(algo, m, seed, IndexOpts{})
}

// BuilderWithOpts is BuilderByName with the SQ8 quantization knobs.
// The flat families ("exact" is the full-precision baseline by
// definition; "ivfpq" is already compressed-domain) have no SQ8 tier,
// so requesting them quantized is a configuration error.
func BuilderWithOpts(algo string, m vec.Metric, seed int64, opts IndexOpts) (Builder, error) {
	factory, ok := builders[algo]
	if !ok {
		return nil, fmt.Errorf("engine: unknown algorithm %q (want one of: %s)", algo, strings.Join(Algos(), ", "))
	}
	return factory(m, seed, opts)
}
