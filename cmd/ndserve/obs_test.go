package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ndsearch/internal/obs"
)

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// jsonShape flattens a JSON document to "path: type" lines, keys sorted
// at every level — the key set and JSON types with the values dropped.
// An array contributes the shape of its first element.
func jsonShape(t *testing.T, raw []byte) string {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	var walk func(path string, v any) string
	walk = func(path string, v any) string {
		switch v := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(v))
			for k := range v {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if typ := walk(path+k+".", v[k]); typ != "" {
					fmt.Fprintf(&b, "%s%s: %s\n", path, k, typ)
				}
			}
			return ""
		case []any:
			if len(v) == 0 {
				return "[]"
			}
			return "[" + walk(path, v[0]) + "]"
		case string:
			return "string"
		case bool:
			return "bool"
		case float64:
			return "number"
		}
		return "null"
	}
	walk("", doc)
	return b.String()
}

func TestMetricsEndpoint(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()

	// A scrape before any traffic is already a valid exposition.
	rec := get(h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ExpositionContentType)
	}
	if !strings.Contains(rec.Body.String(), "nd_search_queries_total 0") {
		t.Fatalf("cold scrape missing zero counter:\n%s", rec.Body.String())
	}

	if rec, resp := postSearch(t, h, SearchRequest{Query: asFloats(d.Queries[0])}); resp == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	out := get(h, "/metrics").Body.String()
	for _, want := range []string{
		"# TYPE nd_search_latency_seconds histogram",
		`nd_search_latency_seconds_bucket{le="+Inf"} 1`,
		"nd_search_latency_seconds_count 1",
		"nd_search_queries_total 1",
		"nd_search_batches_total 1",
		"nd_shard_searches_total 2",
		"# TYPE nd_live_vectors gauge",
		"nd_live_vectors 500",
		"nd_generation 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Mixed traffic through every counted path: a direct batch, two more
	// coalesced singles, upserts, a delete of a live and of an absent ID,
	// one compaction. Every fact /stats and /metrics both carry must then
	// be equal — they are two renderings of the same instruments.
	batch := SearchRequest{K: 5}
	for _, q := range d.Queries[:3] {
		batch.Queries = append(batch.Queries, asFloats(q))
	}
	for _, req := range []SearchRequest{batch, {Query: asFloats(d.Queries[1])}, {Query: asFloats(d.Queries[2])}} {
		if rec, resp := postSearch(t, h, req); resp == nil {
			t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
		}
	}
	for _, call := range []struct {
		path string
		body any
	}{
		{"/upsert", UpsertRequest{ID: ptr(9100), Vector: asFloats(d.Vectors[0])}},
		{"/upsert", UpsertRequest{ID: ptr(9101), Vector: asFloats(d.Vectors[1])}},
		{"/delete", DeleteRequest{ID: ptr(3)}},
		{"/delete", DeleteRequest{ID: ptr(77777)}},
		{"/compact", struct{}{}},
	} {
		if rec := postJSON(t, h, call.path, call.body); rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d %s", call.path, rec.Code, rec.Body.String())
		}
	}
	rawStats := get(h, "/stats").Body.Bytes()
	var st StatsResponse
	if err := json.Unmarshal(rawStats, &st); err != nil {
		t.Fatal(err)
	}
	out = get(h, "/metrics").Body.String()
	for _, f := range []struct {
		sample    string
		got, want int64
	}{
		{"nd_search_batches_total", st.Batches, 4},
		{"nd_search_queries_total", st.Queries, 6},
		{"nd_shard_searches_total", st.ShardSearches, 12},
		{"nd_upserts_total", st.Mutation.Upserts, 2},
		{"nd_deletes_total", st.Mutation.Deletes, 1},
		{"nd_compactions_total", st.Mutation.Compactions, 1},
		{"nd_generation", int64(st.Mutation.Generation), 1},
		{"nd_coalesce_submits_total", st.Coalescer.Submits, 3},
		{"nd_coalesce_batches_total", st.Coalescer.Batches, 3},
		{"nd_coalesce_formed_batch_size_sum", st.Coalescer.Queries, 3},
	} {
		if f.got != f.want {
			t.Errorf("/stats fact behind %s = %d, want %d", f.sample, f.got, f.want)
		}
		if line := fmt.Sprintf("%s %d\n", f.sample, f.got); !strings.Contains(out, line) {
			t.Errorf("/metrics disagrees with /stats: missing %q:\n%s", line, out)
		}
	}

	// The /stats key set (names and JSON types, not values) is wire
	// contract: dashboards and ndbench parse it.
	const wantShape = `batches: number
busy_us: number
coalescer.batches: number
coalescer.max_formed_batch: number
coalescer.max_wait_us: number
coalescer.mean_formed_batch: number
coalescer.mean_wait_us: number
coalescer.queries: number
coalescer.queue_depth: number
coalescer.submits: number
max_batch_latency_us: number
mean_query_latency_us: number
mutation.base_tombstones: number
mutation.compacting: bool
mutation.compactions: number
mutation.deletes: number
mutation.delta_live: number
mutation.delta_tombstones: number
mutation.generation: number
mutation.last_compact_us: number
mutation.last_compact_vectors: number
mutation.upserts: number
per_shard_searches: [number]
queries: number
serve: string
shard_searches: number
`
	if got := jsonShape(t, rawStats); got != wantShape {
		t.Errorf("/stats key set changed:\n got:\n%s\nwant:\n%s", got, wantShape)
	}

	// Wrong method: 405 plus Allow, like every read-only endpoint.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/metrics", strings.NewReader("{}")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Fatalf("Allow = %q, want GET", allow)
	}

	// HEAD: headers only.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, "/metrics", nil))
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("HEAD /metrics = %d with %d body bytes, want 200 and empty", rec.Code, rec.Body.Len())
	}
}

func TestPprofGating(t *testing.T) {
	srv, _ := testServer(t, 2)
	if rec := get(srv.Handler(), "/debug/pprof/"); rec.Code != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ = %d, want 404", rec.Code)
	}

	srv.EnablePprof()
	h := srv.Handler()
	if rec := get(h, "/debug/pprof/"); rec.Code != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/ = %d, want 200", rec.Code)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/debug/pprof/", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/pprof/ = %d, want 405", rec.Code)
	}
}

func TestSlowQueryLog(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()
	var buf bytes.Buffer
	srv.SetSlowQueryLog(time.Nanosecond, log.New(&buf, "", 0))

	if rec, resp := postSearch(t, h, SearchRequest{Query: asFloats(d.Queries[0])}); resp == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	line := buf.String()
	for _, want := range []string{
		"slowquery ", "dataset=" + d.Profile.Name, "algo=exact",
		"latency_us=", "threshold_us=", "k=10", "queries=1", "coalesced=true",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %q", want, line)
		}
	}

	// Above-traffic threshold: nothing logged.
	buf.Reset()
	srv.SetSlowQueryLog(time.Hour, log.New(&buf, "", 0))
	if rec, resp := postSearch(t, h, SearchRequest{Query: asFloats(d.Queries[0])}); resp == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	if buf.Len() != 0 {
		t.Fatalf("fast query logged as slow: %q", buf.String())
	}
}

// TestSearchTraceOptIn pins the wire contract: "trace": true returns
// the identical results plus a non-empty span list; without it the
// trace key is absent entirely.
func TestSearchTraceOptIn(t *testing.T) {
	srv, d := testServer(t, 3)
	h := srv.Handler()
	req := SearchRequest{K: 5}
	for _, q := range d.Queries[:4] {
		req.Queries = append(req.Queries, asFloats(q))
	}

	rec, plain := postSearch(t, h, req)
	if plain == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["trace"]; present {
		t.Fatal("untraced response must omit the trace key")
	}

	req.Trace = true
	rec, traced := postSearch(t, h, req)
	if traced == nil {
		t.Fatalf("traced search failed: %d %s", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(plain.Results, traced.Results) {
		t.Fatalf("traced results differ from untraced:\n%v\n%v", plain.Results, traced.Results)
	}
	stages := make(map[string]int)
	for _, s := range traced.Trace {
		stages[s.Stage]++
	}
	if stages["fanout"] != 1 || stages["merge"] != 1 {
		t.Fatalf("trace stages = %v, want one fanout and one merge", stages)
	}
	if got := stages["shard_search"]; got != 4*3 {
		t.Fatalf("%d shard_search spans, want %d", got, 4*3)
	}
}

// TestSearchTraceCoalesced drives the traced coalesced path: the
// admission wait gets its own span and the request adopts the shared
// engine batch's spans.
func TestSearchTraceCoalesced(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()

	req := SearchRequest{Query: asFloats(d.Queries[0]), K: 5, Trace: true}
	rec, traced := postSearch(t, h, req)
	if traced == nil {
		t.Fatalf("traced coalesced search failed: %d %s", rec.Code, rec.Body.String())
	}
	if !traced.Batch.Coalesced {
		t.Fatal("request did not ride the coalescer")
	}
	stages := make(map[string]int)
	for _, s := range traced.Trace {
		stages[s.Stage]++
	}
	for _, want := range []string{"coalesce_wait", "fanout", "shard_search", "merge"} {
		if stages[want] == 0 {
			t.Fatalf("coalesced trace missing %q: %v", want, stages)
		}
	}

	// Untraced through the same coalescer returns the same neighbors.
	rec, plain := postSearch(t, h, SearchRequest{Query: asFloats(d.Queries[0]), K: 5})
	if plain == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	if !reflect.DeepEqual(plain.Results, traced.Results) {
		t.Fatalf("coalesced traced results differ:\n%v\n%v", plain.Results, traced.Results)
	}
}

func TestHealthzGenerations(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()

	generations := func() int {
		t.Helper()
		rec := get(h, "/healthz")
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /healthz = %d", rec.Code)
		}
		var hr HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
			t.Fatal(err)
		}
		return hr.Generations
	}

	if got := generations(); got != 0 {
		t.Fatalf("generations = %d before compaction, want 0", got)
	}

	// One upsert dirties the delta so /compact has work to drain.
	id := uint32(len(d.Vectors))
	body, _ := json.Marshal(UpsertRequest{ID: &id, Vector: asFloats(d.Queries[0])})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upsert", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /upsert = %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compact", strings.NewReader("{}")))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /compact = %d %s", rec.Code, rec.Body.String())
	}

	if got := generations(); got != 1 {
		t.Fatalf("generations = %d after compaction, want 1", got)
	}
}
