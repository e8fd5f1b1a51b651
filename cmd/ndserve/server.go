package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/engine"
	"ndsearch/internal/obs"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
)

// Server exposes a sharded engine over HTTP: POST /search for single
// and batch queries, GET /healthz for liveness, GET /stats for the
// engine's cumulative serving counters. Every /search request, single
// or batch, is one engine batch: the engine's task channel is the only
// admission queue.
type Server struct {
	engine  *engine.Engine
	dim     int
	dataset string
	algo    string
	// compactor, when non-nil, drains the engine's delta tier in the
	// background once it crosses the configured threshold.
	compactor *engine.Compactor
	// defaultK applies when a request omits k.
	defaultK int
	// maxBatch rejects oversized batch requests.
	maxBatch int
	// maxBodyBytes caps the /search request body before JSON decoding,
	// so the maxBatch check cannot be bypassed by one huge payload.
	maxBodyBytes int64
	// metrics is the observability registry behind GET /metrics; the
	// engine's instruments are on it.
	metrics *obs.Registry
	// pprofOn mounts /debug/pprof/ on Handler (EnablePprof).
	pprofOn bool
	// slowQuery, when > 0, logs /search requests slower than it to
	// slowLog as one structured line each (SetSlowQueryLog).
	slowQuery time.Duration
	slowLog   *log.Logger
}

// NewServer wraps a built engine. dim is the corpus dimensionality used
// to validate request vectors.
func NewServer(e *engine.Engine, dim int, dataset, algo string) *Server {
	s := &Server{
		engine: e, dim: dim, dataset: dataset, algo: algo,
		defaultK: 10, maxBatch: 4096, maxBodyBytes: 64 << 20,
		metrics: obs.NewRegistry(), slowLog: log.Default(),
	}
	e.EnableMetrics(s.metrics)
	return s
}

// Close stops the background compactor (if enabled), then the engine's
// worker pool — the compactor must finish any in-flight drain before
// the engine goes away.
func (s *Server) Close() {
	if s.compactor != nil {
		s.compactor.Close()
	}
	s.engine.Close()
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/upsert", s.handleUpsert)
	mux.HandleFunc("/delete", s.handleDelete)
	mux.HandleFunc("/compact", s.handleCompact)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.pprofOn {
		mountPprof(mux)
	}
	return mux
}

// SearchRequest is the /search payload. Exactly one of Query (single)
// or Queries (batch) must be set. Trace opts into per-stage timing
// spans in the response; results are byte-identical either way.
type SearchRequest struct {
	Query   []float32   `json:"query,omitempty"`
	Queries [][]float32 `json:"queries,omitempty"`
	K       int         `json:"k,omitempty"`
	Trace   bool        `json:"trace,omitempty"`
}

// SearchResult is one neighbor on the wire.
type SearchResult struct {
	ID   uint32  `json:"id"`
	Dist float32 `json:"dist"`
}

// BatchInfo reports the executed engine batch, mirroring
// engine.BatchStats; Size is the request's own query count.
type BatchInfo struct {
	Size      int     `json:"size"`
	Shards    int     `json:"shards"`
	LatencyUS float64 `json:"latency_us"`
	QPS       float64 `json:"qps"`
}

// SearchResponse is the /search reply: Results[i] answers query i.
// Trace carries the per-stage spans when the request set "trace": true
// (span schema: DESIGN.md §13).
type SearchResponse struct {
	Results [][]SearchResult `json:"results"`
	Batch   BatchInfo        `json:"batch"`
	Trace   []obs.Span       `json:"trace,omitempty"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// Handler wall time feeds the slow-query log only.
	start := time.Now()
	var req SearchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	batch, err := s.batchOf(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k := req.K
	if k == 0 {
		k = s.defaultK
	}
	if k < 1 {
		httpError(w, http.StatusBadRequest, "k must be >= 1, got %d", k)
		return
	}
	var tr *obs.Trace
	if req.Trace {
		tr = obs.NewTrace()
	}
	results, st := s.engine.SearchBatchOpts(batch, k, engine.SearchOptions{Trace: tr})
	resp := SearchResponse{
		Results: make([][]SearchResult, len(results)),
		Batch: BatchInfo{
			Size:      st.BatchSize,
			Shards:    st.Shards,
			LatencyUS: float64(st.Latency) / float64(time.Microsecond),
			QPS:       st.QPS,
		},
		Trace: tr.Spans(),
	}
	for i, ns := range results {
		resp.Results[i] = toWire(ns)
	}
	if elapsed := time.Since(start); s.slowQuery > 0 && elapsed >= s.slowQuery {
		s.logSlowQuery(elapsed, k, len(batch), resp.Batch)
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchOf validates the request shape and returns the query batch.
func (s *Server) batchOf(req *SearchRequest) ([]vec.Vector, error) {
	var raw [][]float32
	switch {
	case req.Query != nil && req.Queries != nil:
		return nil, fmt.Errorf("set either query or queries, not both")
	case req.Query != nil:
		raw = [][]float32{req.Query}
	case req.Queries != nil:
		raw = req.Queries
	default:
		return nil, fmt.Errorf("missing query or queries")
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("empty batch")
	}
	if len(raw) > s.maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds limit %d", len(raw), s.maxBatch)
	}
	batch := make([]vec.Vector, len(raw))
	for i, q := range raw {
		if err := s.checkVector(i, q); err != nil {
			return nil, fmt.Errorf("query %v", err)
		}
		batch[i] = vec.Vector(q)
	}
	return batch, nil
}

// checkVector is the admission gate every request vector passes —
// /search queries and /upsert values alike: the corpus dimensionality,
// and finite components. NaN components poison every (distance, ID)
// comparison and Inf saturates distances, silently wrecking heap order
// and recall — reject them at the boundary instead. i labels the vector
// within its batch for the error message.
func (s *Server) checkVector(i int, q []float32) error {
	if len(q) != s.dim {
		return fmt.Errorf("%d has dim %d, corpus dim is %d", i, len(q), s.dim)
	}
	for j, c := range q {
		if f := float64(c); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%d component %d is not finite (%v)", i, j, c)
		}
	}
	return nil
}

func toWire(ns []ann.Neighbor) []SearchResult {
	out := make([]SearchResult, len(ns))
	for i, n := range ns {
		out[i] = SearchResult{ID: n.ID, Dist: n.Dist}
	}
	return out
}

// HealthResponse is the /healthz payload.
type HealthResponse struct {
	Status  string `json:"status"`
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Vectors int    `json:"vectors"`
	Shards  int    `json:"shards"`
	Workers int    `json:"workers"`
	Dim     int    `json:"dim"`
	// Quantized reports whether the shards traverse the SQ8 compressed
	// tier (from engine provenance, manifest-backed on the load path).
	Quantized bool `json:"quantized"`
	// Serve is the shard serving mode actually in use: "ram", "mmap",
	// or "readat" (engine.ServeMode — a requested mmap that fell back
	// to positioned reads reports "readat").
	Serve string `json:"serve"`
	// SnapshotFormat is the snapshot container format version, the one
	// version this build saves and loads.
	SnapshotFormat int `json:"snapshot_format_version"`
	// Generations is the current base generation number — 0 until the
	// first compaction, then incrementing per completed compaction — so
	// probes can watch compaction progress without parsing /stats.
	Generations int `json:"generations"`
}

// allowGet gates read-only endpoints to GET/HEAD, mirroring /search's
// method check; anything else is a 405 with an Allow header.
func allowGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		httpError(w, http.StatusMethodNotAllowed, "GET or HEAD only")
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !allowGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{
		Status: "ok", Dataset: s.dataset, Algo: s.algo,
		Vectors: s.engine.Len(), Shards: s.engine.Shards(),
		Workers: s.engine.Workers(), Dim: s.dim,
		Quantized:      s.engine.Meta().Quantized,
		Serve:          s.engine.ServeMode(),
		SnapshotFormat: snapshot.FormatVersion,
		Generations:    s.engine.Generation(),
	})
}

// StatsResponse is the /stats payload: cumulative engine counters and
// per-shard task counts. On the paged serving path, Pages carries the
// software page counters summed across the shards.
type StatsResponse struct {
	Batches            int64      `json:"batches"`
	Queries            int64      `json:"queries"`
	ShardSearches      int64      `json:"shard_searches"`
	PerShardSearches   []int64    `json:"per_shard_searches"`
	BusyUS             float64    `json:"busy_us"`
	MeanQueryLatencyUS float64    `json:"mean_query_latency_us"`
	MaxBatchLatencyUS  float64    `json:"max_batch_latency_us"`
	Serve              string     `json:"serve"`
	Pages              *PageStats `json:"pages,omitempty"`
	// Mutation carries the live-mutability counters.
	Mutation *MutationStats `json:"mutation,omitempty"`
}

// PageStats is the paged-serving section of /stats: engine-wide sums of
// the per-shard software page counters (engine.PageStats).
type PageStats struct {
	Touches       uint64 `json:"touches"`
	Faults        uint64 `json:"faults"`
	IOErrors      uint64 `json:"io_errors"`
	ResidentPages int    `json:"resident_pages"`
	CachePages    int    `json:"cache_pages"`
	PageSizeBytes int    `json:"page_size_bytes"`
	TotalPages    int64  `json:"total_pages"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowGet(w, r) {
		return
	}
	st := s.engine.Stats()
	resp := StatsResponse{
		Batches:            st.Batches,
		Queries:            st.Queries,
		ShardSearches:      st.ShardSearches,
		PerShardSearches:   st.PerShardSearches,
		BusyUS:             float64(st.Busy) / float64(time.Microsecond),
		MeanQueryLatencyUS: float64(st.MeanQueryLatency()) / float64(time.Microsecond),
		MaxBatchLatencyUS:  float64(st.MaxBatchLatency) / float64(time.Microsecond),
		Serve:              s.engine.ServeMode(),
		Mutation:           s.mutationStats(),
	}
	if ps, ok := s.engine.PageStats(); ok {
		resp.Pages = &PageStats{
			Touches:       ps.Touches,
			Faults:        ps.Faults,
			IOErrors:      ps.IOErrors,
			ResidentPages: ps.ResidentPages,
			CachePages:    ps.CachePages,
			PageSizeBytes: ps.PageSize,
			TotalPages:    ps.TotalPages,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
