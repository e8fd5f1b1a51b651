// Observability wiring: the engine's serving counters are obs
// instruments, EnableMetrics exposes them on an obs.Registry, and
// SearchOptions threads an optional per-query stage trace through
// SearchBatchOpts. See DESIGN.md §13.
package engine

import (
	"ndsearch/internal/obs"
)

// SearchOptions parameterises one SearchBatchOpts call.
type SearchOptions struct {
	// Trace, when non-nil, records per-stage spans of the batch
	// execution: fanout, one shard_search span per (query, shard) search
	// (with software page counters on the paged serving path), the merge
	// fold, and per-query tier folds on a mutated engine. Tracing is
	// observation only — results are byte-identical to an untraced call.
	Trace *obs.Trace
}

// engineMetrics are the engine's only serving counters, live from
// construction: Stats and MutStats are views computed from them, and
// EnableMetrics only names them on a registry.
type engineMetrics struct {
	searchLatency *obs.Histogram
	batchSize     *obs.Histogram
	batches       *obs.Counter
	queries       *obs.Counter
	shardSearches *obs.Counter

	compactSeconds *obs.Histogram
	compactions    *obs.Counter
	upserts        *obs.Counter
	deletes        *obs.Counter
}

func newEngineMetrics() engineMetrics {
	return engineMetrics{
		searchLatency: obs.NewHistogram("nd_search_latency_seconds",
			"engine batch execution wall time", obs.LatencyBuckets),
		batchSize: obs.NewHistogram("nd_search_batch_size",
			"queries per executed engine batch", obs.SizeBuckets),
		batches: obs.NewCounter("nd_search_batches_total",
			"completed engine batch executions"),
		queries: obs.NewCounter("nd_search_queries_total",
			"queries carried by completed engine batches"),
		shardSearches: obs.NewCounter("nd_shard_searches_total",
			"executed (query, shard) searches"),
		compactSeconds: obs.NewHistogram("nd_compaction_seconds",
			"delta-drain compaction duration (capture through swap)", obs.LatencyBuckets),
		compactions: obs.NewCounter("nd_compactions_total",
			"completed generation compactions"),
		upserts: obs.NewCounter("nd_upserts_total",
			"accepted upserts into the delta tier"),
		deletes: obs.NewCounter("nd_deletes_total",
			"deletes that removed a live vector"),
	}
}

// EnableMetrics exposes the engine's metrics on r: the instruments it
// already keeps, plus scrape-time readings of the generational and
// paged-serving state. Call it once per registry.
func (e *Engine) EnableMetrics(r *obs.Registry) {
	r.Register(
		e.m.searchLatency, e.m.batchSize, e.m.batches, e.m.queries, e.m.shardSearches,
		e.m.compactSeconds, e.m.compactions, e.m.upserts, e.m.deletes,
		obs.NewGaugeFunc("nd_live_vectors",
			"live vector count across base and delta tiers",
			func() float64 { return float64(e.Len()) }),
		obs.NewGaugeFunc("nd_generation",
			"current base generation number (increments per compaction)",
			func() float64 { return float64(e.Generation()) }),
		obs.NewGaugeFunc("nd_delta_live",
			"live vectors in the mutable delta tier",
			func() float64 { return float64(e.MutStats().DeltaLive) }),
		obs.NewGaugeFunc("nd_base_tombstones",
			"base-generation entries shadowed by the delta tier",
			func() float64 { return float64(e.MutStats().BaseTombstones) }),
		obs.NewCounterFunc("nd_page_touches_total",
			"software page-cache touches across paged shards (0 when resident)",
			func() float64 { ps, _ := e.PageStats(); return float64(ps.Touches) }),
		obs.NewCounterFunc("nd_page_faults_total",
			"software page-cache fills across paged shards (0 when resident)",
			func() float64 { ps, _ := e.PageStats(); return float64(ps.Faults) }),
		obs.NewCounterFunc("nd_page_io_errors_total",
			"failed page reads across paged shards (0 when resident)",
			func() float64 { ps, _ := e.PageStats(); return float64(ps.IOErrors) }),
		obs.NewGaugeFunc("nd_page_resident_pages",
			"pages resident in the per-shard page caches",
			func() float64 { ps, _ := e.PageStats(); return float64(ps.ResidentPages) }),
	)
}

// Generation returns the current base generation number: 0 until the
// first compaction, then incrementing per completed compaction — the
// cheap progress signal /healthz probes watch.
func (e *Engine) Generation() int {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	return e.gen.num
}
