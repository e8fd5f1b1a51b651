package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/vec"
)

// testServer builds a small exact-sharded server plus the corpus it
// serves, so tests can check wire results against ground truth.
func testServer(t *testing.T, shards int) (*Server, *dataset.Dataset) {
	t.Helper()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 500, Queries: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.BuilderByName("exact", prof.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(d.Vectors, engine.Config{Shards: shards, Workers: 4, Builder: b})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, prof.Dim, prof.Name, "exact")
	t.Cleanup(srv.Close)
	return srv, d
}

func postSearch(t *testing.T, h http.Handler, req SearchRequest) (*httptest.ResponseRecorder, *SearchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	return rec, &resp
}

func asFloats(v vec.Vector) []float32 { return []float32(v) }

// The acceptance check: batch /search across >= 2 shards returns exactly
// what an unsharded index returns for every query.
func TestBatchSearchMatchesUnsharded(t *testing.T) {
	srv, d := testServer(t, 3)
	h := srv.Handler()
	req := SearchRequest{K: 10}
	for _, q := range d.Queries {
		req.Queries = append(req.Queries, asFloats(q))
	}
	rec, resp := postSearch(t, h, req)
	if resp == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	if len(resp.Results) != len(d.Queries) {
		t.Fatalf("got %d result lists, want %d", len(resp.Results), len(d.Queries))
	}
	if resp.Batch.Shards != 3 || resp.Batch.Size != len(d.Queries) {
		t.Fatalf("bad batch info %+v", resp.Batch)
	}
	unsharded := ann.NewExact(d.Profile.Metric, d.Vectors)
	for qi, q := range d.Queries {
		want := unsharded.Search(q, 10)
		got := resp.Results[qi]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("query %d result %d: got %+v, want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestSingleQueryAndDefaultK(t *testing.T) {
	srv, d := testServer(t, 2)
	rec, resp := postSearch(t, srv.Handler(), SearchRequest{Query: asFloats(d.Queries[0])})
	if resp == nil {
		t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
	}
	if len(resp.Results) != 1 || len(resp.Results[0]) != 10 {
		t.Fatalf("want 1 list of default k=10, got %d lists, first len %d",
			len(resp.Results), len(resp.Results[0]))
	}
}

// /search accepts any k >= 1, so k must never size an allocation: the
// widest request is answered with every live vector — through graph
// shards, which clamp their beam to the shard, and through the filtered
// shard search and delta merge a pending write turns on.
func TestSearchHugeKIsBoundedByTheIndex(t *testing.T) {
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 300, Queries: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.BuilderByName("hnsw", prof.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(d.Vectors, engine.Config{Shards: 2, Workers: 2, Builder: b})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, prof.Dim, prof.Name, "hnsw")
	t.Cleanup(srv.Close)
	h := srv.Handler()
	q := asFloats(d.Queries[0])
	for _, live := range []int{len(d.Vectors), len(d.Vectors) + 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, resp := postSearch(t, h, SearchRequest{Query: q, K: math.MaxInt32})
		runtime.ReadMemStats(&after)
		if resp == nil {
			t.Fatalf("k=MaxInt32 with %d live: %d %s", live, rec.Code, rec.Body.String())
		}
		if got := len(resp.Results[0]); got != live {
			t.Fatalf("k=MaxInt32 returned %d results, want all %d live vectors", got, live)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Errorf("k=MaxInt32 allocated %d bytes for a %d-vector index", grew, live)
		}
		// A pending upsert makes the next pass filter its shard searches.
		if rec := postJSON(t, h, "/upsert", UpsertRequest{ID: ptr(9000), Vector: q}); rec.Code != http.StatusOK {
			t.Fatalf("/upsert: %d %s", rec.Code, rec.Body)
		}
	}
}

func TestSearchRejectsBadRequests(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()
	q := asFloats(d.Queries[0])
	for name, req := range map[string]SearchRequest{
		"empty":     {},
		"both":      {Query: q, Queries: [][]float32{q}},
		"wrong dim": {Query: q[:4]},
		"bad k":     {Query: q, K: -1},
	} {
		if rec, _ := postSearch(t, h, req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, rec.Code)
		}
	}
	// Malformed JSON.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader([]byte("{"))))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: code %d, want 400", rec.Code)
	}
}

// NaN/Inf query components poison heap ordering; admission must reject
// them with a 400-shaped error before they reach the engine. (JSON
// itself cannot carry NaN/Inf literals, so the check is exercised at
// the batchOf validation seam all request paths share.)
func TestRejectsNonFiniteQueryComponents(t *testing.T) {
	srv, d := testServer(t, 2)
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	q := append([]float32(nil), asFloats(d.Queries[0])...)
	for name, bad := range map[string]float32{"NaN": nan, "+Inf": inf, "-Inf": -inf} {
		q[3] = bad
		if _, err := srv.batchOf(&SearchRequest{Query: q}); err == nil {
			t.Errorf("%s component accepted, want rejection", name)
		}
		if _, err := srv.batchOf(&SearchRequest{Queries: [][]float32{asFloats(d.Queries[0]), q}}); err == nil {
			t.Errorf("%s component in batch accepted, want rejection", name)
		}
	}
	q[3] = 1.5
	if _, err := srv.batchOf(&SearchRequest{Query: q}); err != nil {
		t.Errorf("finite query rejected: %v", err)
	}
}

// /healthz and /stats are read-only: anything but GET/HEAD is a 405,
// matching /search's method check.
func TestHealthzStatsRejectNonGet(t *testing.T) {
	srv, _ := testServer(t, 2)
	h := srv.Handler()
	for _, path := range []string{"/healthz", "/stats"} {
		for _, method := range []string{http.MethodPost, http.MethodDelete, http.MethodPut} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: code %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
				t.Errorf("%s %s: Allow = %q", method, path, allow)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodHead, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("HEAD %s: code %d, want 200", path, rec.Code)
		}
	}
}

// A single-query /search runs the same engine call as a batch: its
// reply has the batch reply's keys, and each query's results are
// byte-identical to its slot in one batch reply (and to the exact
// unsharded answer).
func TestSingleQueryMatchesBatchReply(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()
	type reply struct {
		Results []json.RawMessage          `json:"results"`
		Batch   map[string]json.RawMessage `json:"batch"`
	}
	post := func(req SearchRequest) reply {
		t.Helper()
		rec, resp := postSearch(t, h, req)
		if resp == nil {
			t.Fatalf("search failed: %d %s", rec.Code, rec.Body.String())
		}
		var r reply
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	queries := d.Queries[:4]
	batchReq := SearchRequest{K: 5}
	for _, q := range queries {
		batchReq.Queries = append(batchReq.Queries, asFloats(q))
	}
	batch := post(batchReq)
	if len(batch.Results) != len(queries) {
		t.Fatalf("batch reply has %d result lists, want %d", len(batch.Results), len(queries))
	}
	wantKeys := []string{"latency_us", "qps", "shards", "size"}
	if got := slices.Sorted(maps.Keys(batch.Batch)); !slices.Equal(got, wantKeys) {
		t.Fatalf("batch reply batch keys = %v, want %v", got, wantKeys)
	}
	unsharded := ann.NewExact(d.Profile.Metric, d.Vectors)
	for qi, q := range queries {
		single := post(SearchRequest{Query: asFloats(q), K: 5})
		if got := slices.Sorted(maps.Keys(single.Batch)); !slices.Equal(got, wantKeys) {
			t.Fatalf("query %d: single reply batch keys = %v, want %v", qi, got, wantKeys)
		}
		if len(single.Results) != 1 || !bytes.Equal(single.Results[0], batch.Results[qi]) {
			t.Fatalf("query %d: single reply results %s, batch slot %s", qi, single.Results, batch.Results[qi])
		}
		want, err := json.Marshal(toWire(unsharded.Search(q, 5)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(single.Results[0], want) {
			t.Fatalf("query %d: results %s, exact unsharded %s", qi, single.Results[0], want)
		}
	}

	var stats StatsResponse
	if err := json.Unmarshal(get(h, "/stats").Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 5 || stats.Queries != 8 || len(stats.PerShardSearches) != 2 {
		t.Fatalf("stats %+v, want 5 engine batches of 8 queries over 2 shards", stats)
	}
}

func TestSearchRejectsOversizedBody(t *testing.T) {
	srv, d := testServer(t, 2)
	srv.maxBodyBytes = 256
	rec, _ := postSearch(t, srv.Handler(), SearchRequest{Query: asFloats(d.Queries[0])})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: code %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
}

// A body is exactly one JSON value: a second value or trailing garbage
// after it is a 400 with nothing applied, on every decoding endpoint;
// trailing whitespace is fine.
func TestRejectsTrailingDataAfterBody(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()
	q, err := json.Marshal(asFloats(d.Queries[0]))
	if err != nil {
		t.Fatal(err)
	}
	search := `{"query":` + string(q) + `,"k":3}`
	upsert := `{"id":9000,"vector":` + string(q) + `}`
	for _, c := range []struct {
		path, body string
		code       int
	}{
		{"/delete", `{"ids":[1]}{"ids":[2,3]}`, http.StatusBadRequest},
		{"/delete", `{"ids":[1]} garbage`, http.StatusBadRequest},
		{"/upsert", upsert + `{"id":9001,"vector":` + string(q) + `}`, http.StatusBadRequest},
		{"/upsert", upsert + `]`, http.StatusBadRequest},
		{"/search", search + search, http.StatusBadRequest},
		{"/search", search + ` 7`, http.StatusBadRequest},
		{"/search", search + " \n\t", http.StatusOK},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Errorf("POST %s %.40q...: code %d, want %d (%s)", c.path, c.body, rec.Code, c.code, rec.Body.String())
			continue
		}
		if c.code == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "trailing data after JSON body") {
			t.Errorf("POST %s: error %s, want trailing-data message", c.path, rec.Body.String())
		}
	}
	if st := srv.engine.MutStats(); st.Upserts != 0 || st.Deletes != 0 {
		t.Fatalf("a rejected body was applied: %+v", st)
	}
	if st := srv.engine.Stats(); st.Batches != 1 {
		t.Fatalf("engine ran %d batches, want only the whitespace-tailed search", st.Batches)
	}
}

func TestHealthzAndStats(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("healthz: code %d err %v", rec.Code, err)
	}
	if health.Status != "ok" || health.Shards != 2 || health.Vectors != 500 || health.Dim != 128 {
		t.Fatalf("bad health payload %+v", health)
	}

	// Stats move after a search.
	postSearch(t, h, SearchRequest{Query: asFloats(d.Queries[0]), K: 3})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("stats: code %d err %v", rec.Code, err)
	}
	if stats.Batches != 1 || stats.Queries != 1 || stats.ShardSearches != 2 {
		t.Fatalf("bad stats payload %+v", stats)
	}
}

// Flag validation: values that would build a broken engine are rejected
// up front with a usage error instead of surfacing later as a panic or a
// zero-shard engine.
func TestValidateFlags(t *testing.T) {
	ok := func(err error) bool { return err == nil }
	bad := func(err error) bool { return err != nil }
	cases := []struct {
		name             string
		n, shards        int
		workers          int
		rerank           int
		save, load       string
		serve            string
		cachePages       int
		compactThreshold int
		slowQuery        time.Duration
		explicit         []string
		want             func(error) bool
	}{
		{"defaults", 20000, 4, 0, 0, "", "", "ram", 0, 0, 0, nil, ok},
		{"rerank", 100, 2, 0, 64, "", "", "ram", 0, 0, 0, nil, ok},
		{"negative rerank", 100, 2, 0, -1, "", "", "ram", 0, 0, 0, nil, bad},
		{"zero n", 0, 4, 0, 0, "", "", "ram", 0, 0, 0, nil, bad},
		{"negative n", -5, 4, 0, 0, "", "", "ram", 0, 0, 0, nil, bad},
		{"zero shards", 100, 0, 0, 0, "", "", "ram", 0, 0, 0, nil, bad},
		{"negative shards", 100, -1, 0, 0, "", "", "ram", 0, 0, 0, nil, bad},
		{"negative workers", 100, 2, -1, 0, "", "", "ram", 0, 0, 0, nil, bad},
		{"save", 100, 2, 0, 0, "dir", "", "ram", 0, 0, 0, nil, ok},
		{"load ignores n/shards", 0, 0, 0, 0, "", "dir", "ram", 0, 0, 0, nil, ok},
		{"save and load", 100, 2, 0, 0, "a", "b", "ram", 0, 0, 0, nil, bad},
		{"mmap serve with load", 0, 0, 0, 0, "", "dir", "mmap", 64, 0, 0, nil, ok},
		{"readat serve with load", 0, 0, 0, 0, "", "dir", "readat", 0, 0, 0, nil, ok},
		{"mmap serve without load", 100, 2, 0, 0, "", "", "mmap", 0, 0, 0, nil, bad},
		{"unknown serve mode", 0, 0, 0, 0, "", "dir", "disk", 0, 0, 0, nil, bad},
		{"negative cache-pages", 0, 0, 0, 0, "", "dir", "mmap", -1, 0, 0, nil, bad},
		{"negative compact-threshold", 100, 2, 0, 0, "", "", "ram", 0, -1, 0, nil, bad},
		{"compact threshold enabled", 100, 2, 0, 0, "", "", "ram", 0, 4096, 0, nil, ok},
		// A paged engine cannot compact: an explicitly set threshold is a
		// usage error there, the flag's default is not, and 0 opts out.
		{"mmap serve with -compact-threshold", 0, 0, 0, 0, "", "dir", "mmap", 0, 512, 0,
			[]string{"load-index", "serve", "compact-threshold"}, bad},
		{"readat serve with -compact-threshold", 0, 0, 0, 0, "", "dir", "readat", 0, 512, 0,
			[]string{"load-index", "serve", "compact-threshold"}, bad},
		{"mmap serve with default compact-threshold", 0, 0, 0, 0, "", "dir", "mmap", 0, 1024, 0,
			[]string{"load-index", "serve"}, ok},
		{"mmap serve with -compact-threshold 0", 0, 0, 0, 0, "", "dir", "mmap", 0, 0, 0,
			[]string{"load-index", "serve", "compact-threshold"}, ok},
		{"ram load with -compact-threshold", 0, 0, 0, 0, "", "dir", "ram", 0, 512, 0,
			[]string{"load-index", "compact-threshold"}, ok},
		{"slow-query enabled", 100, 2, 0, 0, "", "", "ram", 0, 0, 5 * time.Millisecond, nil, ok},
		{"negative slow-query", 100, 2, 0, 0, "", "", "ram", 0, 0, -time.Millisecond, nil, bad},
		{"build flags with a build", 100, 2, 0, 8, "", "", "ram", 0, 0, 0,
			[]string{"quantized", "rerank", "algo", "dataset", "n", "shards", "seed"}, ok},
		{"load with serving flags", 0, 0, 2, 0, "", "dir", "mmap", 64, 0, 0,
			[]string{"load-index", "serve", "cache-pages", "workers", "addr"}, ok},
		{"load with -quantized", 0, 0, 0, 0, "", "dir", "ram", 0, 0, 0, []string{"load-index", "quantized"}, bad},
		{"load with -rerank", 0, 0, 0, 16, "", "dir", "ram", 0, 0, 0, []string{"load-index", "rerank"}, bad},
		{"load with -algo", 0, 0, 0, 0, "", "dir", "ram", 0, 0, 0, []string{"algo", "load-index"}, bad},
		{"load with -dataset", 0, 0, 0, 0, "", "dir", "ram", 0, 0, 0, []string{"dataset", "load-index"}, bad},
		{"load with -n", 500, 0, 0, 0, "", "dir", "ram", 0, 0, 0, []string{"load-index", "n"}, bad},
		{"load with -shards", 0, 2, 0, 0, "", "dir", "ram", 0, 0, 0, []string{"load-index", "shards"}, bad},
		{"load with -seed", 0, 0, 0, 0, "", "dir", "ram", 0, 0, 0, []string{"load-index", "seed"}, bad},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFlags(c.n, c.shards, c.workers, c.rerank,
				c.save, c.load, c.serve, c.cachePages, c.compactThreshold, c.slowQuery, c.explicit)
			if !c.want(err) {
				t.Errorf("validateFlags(%+v) = %v", c, err)
			}
		})
	}
}

// Save/load through the CLI plumbing: a server loaded from a snapshot
// directory answers exactly like the server that saved it, and the
// manifest supplies dataset/algo/dim so no generation or build runs.
func TestSaveLoadIndexFlow(t *testing.T) {
	built, err := buildServer("sift-1b", "hnsw", 500, 3, 2, 7, engine.IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(built.Close)
	dir := t.TempDir()
	if err := built.engine.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadServer(dir, engine.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loaded.Close)
	if loaded.dim != built.dim || loaded.dataset != built.dataset || loaded.algo != built.algo {
		t.Fatalf("loaded server identity (%d, %s, %s), want (%d, %s, %s)",
			loaded.dim, loaded.dataset, loaded.algo, built.dim, built.dataset, built.algo)
	}
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 1, Queries: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range d.Queries {
		req := SearchRequest{Query: asFloats(q), K: 10}
		recA, respA := postSearch(t, built.Handler(), req)
		recB, respB := postSearch(t, loaded.Handler(), req)
		if respA == nil || respB == nil {
			t.Fatalf("query %d failed: built %d, loaded %d", qi, recA.Code, recB.Code)
		}
		if len(respA.Results[0]) != len(respB.Results[0]) {
			t.Fatalf("query %d: result lengths differ", qi)
		}
		for i := range respA.Results[0] {
			a, b := respA.Results[0][i], respB.Results[0][i]
			if a.ID != b.ID || a.Dist != b.Dist {
				t.Fatalf("query %d result %d: built %+v, loaded %+v", qi, i, a, b)
			}
		}
	}
}

// gatedServer is testServer on one shard and two workers, every shard
// search parked until open is called; held receives as a search parks.
// Cleanup opens the gate before closing the server.
func gatedServer(t *testing.T) (srv *Server, d *dataset.Dataset, held <-chan struct{}, open func()) {
	t.Helper()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 200, Queries: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.BuilderByName("exact", prof.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	hold, release := make(chan struct{}, 1), make(chan struct{})
	e, err := engine.New(d.Vectors, engine.Config{Shards: 1, Workers: 2,
		Builder: func(shard int, data []vec.Vector) (ann.Index, error) {
			idx, err := b(shard, data)
			if err != nil {
				return nil, err
			}
			return gatedIndex{idx, hold, release}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(e, prof.Dim, prof.Name, "exact")
	t.Cleanup(srv.Close)
	var once sync.Once
	open = func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	return srv, d, hold, open
}

type gatedIndex struct {
	ann.Index
	held, release chan struct{}
}

func (x gatedIndex) SearchFilter(q vec.Vector, k int, skip func(uint32) bool) []ann.Neighbor {
	select {
	case x.held <- struct{}{}:
	default:
	}
	<-x.release
	return x.Index.SearchFilter(q, k, skip)
}

// Graceful shutdown: a signal closes the listener, then drains both
// requests parked in the engine — a single query and a batch whose
// second task waits in the engine's task channel behind the gate — so
// each completes with a 200 before serve returns.
func TestServeGracefulShutdown(t *testing.T) {
	srv, d, held, open := gatedServer(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	hsrv := newHTTPServer(srv.Handler())
	go func() { serveErr <- serve(hsrv, srv, ln, sig, 5*time.Second) }()

	base := "http://" + ln.Addr().String()
	type result struct {
		code int
		resp SearchResponse
		err  error
	}
	post := func(req SearchRequest) <-chan result {
		done := make(chan result, 1)
		go func() {
			body, _ := json.Marshal(req)
			resp, err := http.Post(base+"/search", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var sr SearchResponse
			err = json.NewDecoder(resp.Body).Decode(&sr)
			done <- result{code: resp.StatusCode, resp: sr, err: err}
		}()
		return done
	}

	// Two workers: the single query's task parks one, the batch's first
	// task the other, and its second task queues behind them — so the
	// drain provably covers the engine's admission queue, not just tasks
	// already running.
	single := post(SearchRequest{Query: asFloats(d.Queries[0]), K: 5})
	<-held
	batch := post(SearchRequest{Queries: [][]float32{asFloats(d.Queries[1]), asFloats(d.Queries[2])}, K: 5})
	<-held
	sig <- os.Interrupt
	// Open the gate only once shutdown has closed the listener.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get(base + "/healthz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after the signal")
		}
		time.Sleep(time.Millisecond)
	}
	open()

	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("serve returned %v after signal, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after signal")
	}
	for name, c := range map[string]struct {
		done  <-chan result
		lists int
	}{"single": {single, 1}, "batch": {batch, 2}} {
		r := <-c.done
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("in-flight %s request: code %d err %v, want 200 nil", name, r.code, r.err)
		}
		if len(r.resp.Results) != c.lists {
			t.Fatalf("in-flight %s request returned %d result lists, want %d", name, len(r.resp.Results), c.lists)
		}
		for _, res := range r.resp.Results {
			if len(res) != 5 {
				t.Fatalf("in-flight %s request returned malformed results %+v", name, r.resp.Results)
			}
		}
	}
}

// A failing listener (closed underneath the server) also shuts the
// server down cleanly rather than leaking the engine pool.
func TestServeListenerError(t *testing.T) {
	srv, _ := testServer(t, 2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- serve(newHTTPServer(srv.Handler()), srv, ln, sig, time.Second) }()
	ln.Close()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("serve returned nil after listener failure")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after listener failure")
	}
}

// The server ndserve runs closes a connection whose request header
// stalls past ReadHeaderTimeout, while a keep-alive connection left idle
// for longer than that still serves its next request: IdleTimeout, not
// ReadHeaderTimeout, bounds the wait between requests. Both timeouts
// are shortened here only.
func TestHTTPServerTimeouts(t *testing.T) {
	srv, _ := testServer(t, 1)
	hsrv := newHTTPServer(srv.Handler())
	if hsrv.ReadHeaderTimeout <= 0 || hsrv.IdleTimeout < time.Minute || hsrv.WriteTimeout != 0 {
		t.Fatalf("timeouts: read header %v, idle %v, write %v; want a header bound, minutes idle, no write bound",
			hsrv.ReadHeaderTimeout, hsrv.IdleTimeout, hsrv.WriteTimeout)
	}
	hsrv.ReadHeaderTimeout = 100 * time.Millisecond
	hsrv.IdleTimeout = 10 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hsrv.Serve(ln)
	t.Cleanup(func() { hsrv.Close() })
	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return c
	}

	stalled := dial()
	if _, err := io.WriteString(stalled, "GET /healthz HTTP/1.1\r\nHost: ndserve\r\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(stalled); err != nil {
		t.Fatalf("stalled header: server kept the connection open: %v", err)
	}

	idle := dial()
	br := bufio.NewReader(idle)
	get := func(label string) {
		t.Helper()
		if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: ndserve\r\n\r\n"); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", label, resp.StatusCode)
		}
	}
	get("first request")
	time.Sleep(3 * hsrv.ReadHeaderTimeout)
	get("request after idling past the header timeout")
}

func TestBuildServer(t *testing.T) {
	srv, err := buildServer("glove-100", "exact", 300, 2, 2, 1, engine.IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if srv.engine.Shards() != 2 || srv.engine.Len() != 300 {
		t.Fatalf("unexpected engine shape: shards=%d len=%d", srv.engine.Shards(), srv.engine.Len())
	}
	if _, err := buildServer("nope", "exact", 100, 1, 1, 1, engine.IndexOpts{}); err == nil {
		t.Error("unknown dataset must fail")
	}
	if _, err := buildServer("sift-1b", "nope", 100, 1, 1, 1, engine.IndexOpts{}); err == nil {
		t.Error("unknown algorithm must fail")
	}
}
