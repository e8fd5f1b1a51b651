package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
)

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return rec
}

func ptr(id uint32) *uint32 { return &id }

func TestUpsertDeleteEndpoints(t *testing.T) {
	srv, d := testServer(t, 3)
	h := srv.Handler()
	dim := srv.dim

	// Upsert a fresh vector, then find it by searching for itself.
	nv := make([]float32, dim)
	copy(nv, d.Vectors[0])
	nv[0] += 1000
	rec := postJSON(t, h, "/upsert", UpsertRequest{ID: ptr(9000), Vector: nv})
	if rec.Code != http.StatusOK {
		t.Fatalf("/upsert: %d %s", rec.Code, rec.Body)
	}
	var mr MutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Upserted != 1 || mr.Live != len(d.Vectors)+1 {
		t.Fatalf("upsert response %+v", mr)
	}
	if _, resp := postSearch(t, h, SearchRequest{Queries: [][]float32{nv}, K: 1}); resp == nil ||
		resp.Results[0][0].ID != 9000 {
		t.Fatalf("upserted vector not served: %+v", resp)
	}

	// Batch upsert via items.
	items := []UpsertItem{
		{ID: 9001, Vector: asFloats(d.Vectors[1])},
		{ID: 9002, Vector: asFloats(d.Vectors[2])},
	}
	rec = postJSON(t, h, "/upsert", UpsertRequest{Items: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch /upsert: %d %s", rec.Code, rec.Body)
	}

	// Delete hides the vector from search; the response counts only IDs
	// that were actually live.
	rec = postJSON(t, h, "/delete", DeleteRequest{IDs: []uint32{9000, 77777}})
	if rec.Code != http.StatusOK {
		t.Fatalf("/delete: %d %s", rec.Code, rec.Body)
	}
	mr = MutateResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Deleted != 1 || mr.Live != len(d.Vectors)+2 {
		t.Fatalf("delete response %+v", mr)
	}
	if _, resp := postSearch(t, h, SearchRequest{Queries: [][]float32{nv}, K: 1}); resp == nil ||
		resp.Results[0][0].ID == 9000 {
		t.Fatalf("deleted vector still served: %+v", resp)
	}

	// Compact drains the delta; results unchanged.
	rec = postJSON(t, h, "/compact", struct{}{})
	if rec.Code != http.StatusOK {
		t.Fatalf("/compact: %d %s", rec.Code, rec.Body)
	}
	var cr CompactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Generation != 1 || cr.Vectors != len(d.Vectors)+2 {
		t.Fatalf("compact response %+v", cr)
	}
	// ID 9001 duplicates base vector 1, so at k=2 both sit at distance 0
	// in canonical (distance, ID) order.
	if _, resp := postSearch(t, h, SearchRequest{Queries: [][]float32{asFloats(d.Vectors[1])}, K: 2}); resp == nil ||
		resp.Results[0][0].ID != 1 || resp.Results[0][1].ID != 9001 {
		t.Fatalf("post-compact search wrong: %+v", resp)
	}
}

// The satellite's core demand: mutation bodies go through the same
// validation gate as /search queries — NaN/Inf components and
// dimension mismatches are 400s, applied atomically (a bad item in a
// batch rejects the whole batch).
func TestUpsertRejectsInvalidVectors(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()
	dim := srv.dim
	before := srv.engine.Len()

	bad := map[string][]float32{
		"short": make([]float32, dim-1),
		"long":  make([]float32, dim+1),
		"empty": nil,
	}
	for name, v := range bad {
		rec := postJSON(t, h, "/upsert", UpsertRequest{ID: ptr(1), Vector: v})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s vector: got %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
	}

	// JSON cannot carry NaN/Inf tokens, so non-finite components arrive
	// as decode-level 400s (float64 overflow, float32 overflow, literal
	// NaN); the checkVector gate behind the decoder is what stops
	// non-finite values reaching the engine through any other path.
	for name, raw := range map[string]string{
		"nan token":        `{"id":1,"vector":[NaN]}`,
		"inf overflow":     `{"id":1,"vector":[1e999]}`,
		"neg inf overflow": `{"id":1,"vector":[-1e999]}`,
		"float32 overflow": `{"id":1,"vector":[1e39]}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upsert", bytes.NewReader([]byte(raw))))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
	}
	// A batch where only the second item is bad must apply nothing.
	rec := postJSON(t, h, "/upsert", UpsertRequest{Items: []UpsertItem{
		{ID: 9100, Vector: asFloats(d.Vectors[0])},
		{ID: 9101, Vector: bad["short"]},
	}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("mixed batch: got %d, want 400", rec.Code)
	}
	if srv.engine.Len() != before {
		t.Fatalf("rejected batch mutated the corpus: %d -> %d", before, srv.engine.Len())
	}

	// Malformed shapes.
	for name, body := range map[string]UpsertRequest{
		"both id and items": {ID: ptr(1), Vector: asFloats(d.Vectors[0]),
			Items: []UpsertItem{{ID: 2, Vector: asFloats(d.Vectors[1])}}},
		"neither":     {},
		"empty items": {Items: []UpsertItem{}},
	} {
		if rec := postJSON(t, h, "/upsert", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/upsert", bytes.NewReader([]byte("{"))))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("truncated JSON: got %d, want 400", rec.Code)
	}

	for name, body := range map[string]DeleteRequest{
		"both id and ids": {ID: ptr(1), IDs: []uint32{2}},
		"neither":         {},
		"empty ids":       {IDs: []uint32{}},
	} {
		if rec := postJSON(t, h, "/delete", body); rec.Code != http.StatusBadRequest {
			t.Errorf("delete %s: got %d, want 400", name, rec.Code)
		}
	}
}

// On an engine whose snapshots store u8 (a sift-1b build or load), an
// upsert carrying a component u8 cannot hold is a 400 and applies
// nothing — a batch with one such item included — so compaction keeps
// working.
func TestUpsertRejectsUnrepresentableVectors(t *testing.T) {
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 200, Queries: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.BuilderByName("exact", prof.Metric, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(d.Vectors, engine.Config{Shards: 2, Workers: 2, Builder: b, Meta: engine.Meta{Elem: prof.Elem}})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, prof.Dim, prof.Name, "exact")
	t.Cleanup(srv.Close)
	h := srv.Handler()

	frac := append([]float32(nil), d.Queries[0]...)
	frac[0] = 0.1
	for name, body := range map[string]UpsertRequest{
		"single": {ID: ptr(7), Vector: frac},
		"batch":  {Items: []UpsertItem{{ID: 9100, Vector: asFloats(d.Vectors[0])}, {ID: 7, Vector: frac}}},
	} {
		rec := postJSON(t, h, "/upsert", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "not representable") {
			t.Fatalf("%s: got %d %s, want 400 not representable", name, rec.Code, rec.Body)
		}
	}
	if st := e.MutStats(); st.Upserts != 0 || st.DeltaLive != 0 || e.Len() != len(d.Vectors) {
		t.Fatalf("rejected upserts reached the engine: %+v, len %d", st, e.Len())
	}
	if rec := postJSON(t, h, "/upsert", UpsertRequest{ID: ptr(7), Vector: asFloats(d.Queries[0])}); rec.Code != http.StatusOK {
		t.Fatalf("representable upsert: %d %s", rec.Code, rec.Body)
	}
	if rec := postJSON(t, h, "/compact", struct{}{}); rec.Code != http.StatusOK {
		t.Fatalf("/compact: %d %s", rec.Code, rec.Body)
	}
}

func TestPostEndpointsRejectWrongMethod(t *testing.T) {
	srv, _ := testServer(t, 2)
	h := srv.Handler()
	for _, path := range []string{"/search", "/upsert", "/delete", "/compact"} {
		for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodDelete, http.MethodHead} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
			if rec.Code != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: got %d, want 405", method, path, rec.Code)
			}
			if allow := rec.Header().Get("Allow"); allow != "POST" {
				t.Errorf("%s %s: Allow = %q", method, path, allow)
			}
		}
	}
}

func TestStatsMutationBlock(t *testing.T) {
	srv, d := testServer(t, 2)
	h := srv.Handler()

	readStats := func() *StatsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/stats: %d", rec.Code)
		}
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return &st
	}

	st := readStats()
	if st.Mutation == nil {
		t.Fatal("mutable engine reported no mutation block")
	}
	if st.Mutation.Upserts != 0 || st.Mutation.Generation != 0 {
		t.Fatalf("fresh mutation block %+v", st.Mutation)
	}

	postJSON(t, h, "/upsert", UpsertRequest{ID: ptr(9200), Vector: asFloats(d.Vectors[0])})
	postJSON(t, h, "/delete", DeleteRequest{ID: ptr(3)})
	st = readStats()
	if st.Mutation.Upserts != 1 || st.Mutation.Deletes != 1 ||
		st.Mutation.DeltaLive != 1 || st.Mutation.BaseTombstones != 1 {
		t.Fatalf("mutation block after writes %+v", st.Mutation)
	}

	postJSON(t, h, "/compact", struct{}{})
	st = readStats()
	if st.Mutation.Compactions != 1 || st.Mutation.Generation != 1 ||
		st.Mutation.DeltaLive != 0 || st.Mutation.BaseTombstones != 0 {
		t.Fatalf("mutation block after compact %+v", st.Mutation)
	}
}

// EnableCompaction wires the background compactor: once the delta
// reaches the threshold, a compaction lands without any /compact call.
func TestBackgroundCompaction(t *testing.T) {
	srv, d := testServer(t, 2)
	srv.EnableCompaction(4)
	h := srv.Handler()

	var items []UpsertItem
	for i := 0; i < 8; i++ {
		items = append(items, UpsertItem{ID: uint32(9300 + i), Vector: asFloats(d.Vectors[i])})
	}
	rec := postJSON(t, h, "/upsert", UpsertRequest{Items: items})
	if rec.Code != http.StatusOK {
		t.Fatalf("/upsert: %d %s", rec.Code, rec.Body)
	}

	// The compactor runs asynchronously; wait for it to land by polling
	// the engine (bounded by the test deadline rather than a sleep).
	for srv.engine.MutStats().Compactions == 0 {
		runtime.Gosched()
	}
	st := srv.engine.MutStats()
	if st.Generation < 1 {
		t.Fatalf("background compaction left generation %d", st.Generation)
	}
	stats := srv.mutationStats()
	if stats.CompactThreshold != 4 || stats.CompactorRuns < 1 {
		t.Fatalf("compactor stats %+v", stats)
	}
	if _, resp := postSearch(t, h, SearchRequest{Queries: [][]float32{asFloats(d.Vectors[0])}, K: 1}); resp == nil {
		t.Fatal("search failed after background compaction")
	}
}
