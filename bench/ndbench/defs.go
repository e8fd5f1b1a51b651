package main

import "time"

// metricDef names one reported metric. BENCHMARK.json carries the same
// tables; TestBenchmarkJSONMatchesDefs keeps the two from drifting.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the serving stack sees. Bound is
// the share of the parent's median by which a metric may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p95_ms", "ms", "lower", 0.25},
	{"recall_at_10", "ratio", "higher", 0.02},
}

// perLayer are the single-layer metrics of the traced pass, prefixed by
// module. A layer the workload bypasses reports 0.
var perLayer = []metricDef{
	{Name: "client.requests", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.write_late_p95_ms", Unit: "ms", Better: "lower"},

	{Name: "ndserve.self_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ndserve.req_bytes", Unit: "B", Better: "lower"},
	{Name: "ndserve.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "ndserve.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "ndserve.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "ndserve.spawn_to_ready_ms", Unit: "ms", Better: "lower"},

	{Name: "batcher.wait_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "batcher.wait_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "batcher.formed_batch_mean", Unit: "count", Better: "higher"},
	{Name: "batcher.batches", Unit: "count", Better: "lower"},

	{Name: "engine.batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.fanout_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.shard_search_ms_sum_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "engine.merge_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.self_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.shard_searches", Unit: "count", Better: "higher"},
	{Name: "engine.k_base_mean", Unit: "count", Better: "lower"},
	{Name: "engine.merge_delta_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.merge_frozen_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.merge_base_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "engine.upsert_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.upsert_us_p95", Unit: "us", Better: "lower"},
	{Name: "engine.delete_us_p50", Unit: "us", Better: "lower"},
	{Name: "engine.write_stall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.read_max_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.compactions", Unit: "count", Better: "higher"},
	{Name: "engine.compact_s_mean", Unit: "s", Better: "lower"},
	{Name: "engine.compact_vectors_mean", Unit: "count", Better: "lower"},

	{Name: "delta.shadow_mean", Unit: "count", Better: "lower"},
	{Name: "delta.shadow_max", Unit: "count", Better: "lower"},
	{Name: "delta.scan_us_per_query", Unit: "us", Better: "lower"},

	{Name: "hnsw.build_s", Unit: "s", Better: "lower"},
	{Name: "hnsw.search_us_per_query", Unit: "us", Better: "lower"},
	{Name: "hnsw.dists_per_query", Unit: "count", Better: "lower"},
	{Name: "hnsw.hops_per_query", Unit: "count", Better: "lower"},

	{Name: "vec.l2_d128_ns_per_dist", Unit: "ns", Better: "lower"},
	{Name: "vec.angular_d100_ns_per_dist", Unit: "ns", Better: "lower"},
	{Name: "vec.sq8_d128_ns_per_dist", Unit: "ns", Better: "lower"},
	{Name: "vec.bytes_per_dist", Unit: "B", Better: "lower"},
	{Name: "vec.share_of_search", Unit: "ratio", Better: "lower"},

	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.load_ram_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.open_paged_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes_on_disk", Unit: "B", Better: "lower"},
	{Name: "snapshot.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "snapshot.touches_per_query", Unit: "count", Better: "lower"},
	{Name: "snapshot.faults_per_query", Unit: "count", Better: "lower"},
	{Name: "snapshot.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "snapshot.resident_bytes", Unit: "B", Better: "lower"},
	{Name: "snapshot.io_errors", Unit: "count", Better: "lower"},
	{Name: "snapshot.corpus_over_cache", Unit: "ratio", Better: "higher"},
	{Name: "snapshot.generations", Unit: "count", Better: "higher"},
	{Name: "snapshot.gen_bytes_written_per_user_byte", Unit: "ratio", Better: "lower"},

	{Name: "core.model_page_reads_per_query", Unit: "count", Better: "lower"},
	{Name: "core.page_access_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.sim_qps", Unit: "1/s", Better: "higher"},
	{Name: "core.sim_speedup_cpu", Unit: "ratio", Better: "higher"},

	{Name: "proc.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},

	{Name: "calib.samples", Unit: "count", Better: "higher"},
	{Name: "calib.cpu_us_p50", Unit: "us", Better: "lower"},
	{Name: "calib.cpu_us_p95", Unit: "us", Better: "lower"},
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"ram_batch", "1 closed-loop client batch-searches the resident engine: graph traversal and vec kernels do the work; batcher, page cache and delta are bypassed"},
	{"http_single", "2 keep-alive connections POST single queries to an ndserve subprocess: admission, HTTP and JSON dominate, so a kernel speed-up should barely move it"},
	{"paged_batch", "ram_batch's requests on the same snapshot served by mmap with a page cache 1/8 of the corpus: the larger-than-cache twin, bound by the snapshot page cache"},
	{"mutate_mix", "one closed-loop reader beside an open-loop writer (upsert, overwrite, delete) with background compaction: delta scan, k+shadows widening and compaction dominate"},
}

// profile sizes a run. Everything else about a workload is fixed.
type profile struct {
	n       int // base corpus size
	queries int // generated queries the clients cycle through
	sample  int // leading queries used for the recall and identity checks
	warmup  time.Duration
	setups  int // set-ups per untraced run; setup_s is their median
	// writeRate (writes/s) and compactThreshold shape mutate_mix so that
	// a window holds at least two compactions.
	writeRate        float64
	compactThreshold int
}

var (
	fullProfile = profile{
		n: 8000, queries: 2048, sample: 256, warmup: time.Second, setups: 3,
		writeRate: 128, compactThreshold: 1024,
	}
	// smokeProfile makes every workload finish in about a second, for
	// the harness's own test.
	smokeProfile = profile{
		n: 1500, queries: 256, sample: 64, warmup: 100 * time.Millisecond, setups: 1,
		writeRate: 400, compactThreshold: 96,
	}
)

const (
	k           = 10 // neighbours per query
	batchSize   = 32 // queries per ram_batch / paged_batch request
	shards      = 4
	httpClients = 2    // keep-alive connections of http_single
	recallFloor = 0.90 // a sample recall below this is a failed check
	// writeAckLimit is how long after its due time a write may be
	// acknowledged before it counts as failed.
	writeAckLimit = 250 * time.Millisecond
	// traceSlice is how long the traced pass stays in one mode before it
	// flips between traced and untraced requests.
	traceSlice = 250 * time.Millisecond
)
