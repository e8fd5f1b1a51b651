package main

import (
	"log"
	"net/http"
	"net/http/pprof"
	"time"

	"ndsearch/internal/obs"
)

// Observability endpoints: GET /metrics serves the obs registry in
// Prometheus text exposition format; -pprof additionally mounts the
// net/http/pprof profilers under /debug/pprof/. Both surfaces get the
// same wrong-method handling (405 + Allow) as the other read-only
// ndserve endpoints, and the registry is always live — scraping costs
// nothing when nobody scrapes.

// EnablePprof mounts the /debug/pprof/ endpoints on the next Handler
// call. Off by default: the profilers expose heap contents and can
// suspend the process (e.g. /debug/pprof/trace), so they are opt-in via
// the -pprof flag.
func (s *Server) EnablePprof() { s.pprofOn = true }

// SetSlowQueryLog enables the slow-query log: /search requests whose
// handler wall time meets or exceeds threshold emit one structured line
// on logger. threshold <= 0 disables; a nil logger uses the process
// default.
func (s *Server) SetSlowQueryLog(threshold time.Duration, logger *log.Logger) {
	s.slowQuery = threshold
	if logger == nil {
		logger = log.Default()
	}
	s.slowLog = logger
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !allowGet(w, r) {
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	w.WriteHeader(http.StatusOK)
	if r.Method == http.MethodHead {
		return
	}
	_ = s.metrics.WritePrometheus(w)
}

// mountPprof registers the pprof handlers on mux behind the same
// GET/HEAD method gate as the other read-only endpoints.
func mountPprof(mux *http.ServeMux) {
	getOnly := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if !allowGet(w, r) {
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("/debug/pprof/", getOnly(pprof.Index))
	mux.HandleFunc("/debug/pprof/cmdline", getOnly(pprof.Cmdline))
	mux.HandleFunc("/debug/pprof/profile", getOnly(pprof.Profile))
	mux.HandleFunc("/debug/pprof/symbol", getOnly(pprof.Symbol))
	mux.HandleFunc("/debug/pprof/trace", getOnly(pprof.Trace))
}

// logSlowQuery emits the one-line slow-query record: logfmt-style
// key=value pairs so the line is grep- and machine-friendly.
func (s *Server) logSlowQuery(elapsed time.Duration, k, queries int, info BatchInfo) {
	s.slowLog.Printf(
		"slowquery dataset=%s algo=%s latency_us=%.0f threshold_us=%.0f k=%d queries=%d batch_size=%d",
		s.dataset, s.algo,
		float64(elapsed)/float64(time.Microsecond),
		float64(s.slowQuery)/float64(time.Microsecond),
		k, queries, info.Size,
	)
}
