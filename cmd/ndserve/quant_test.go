package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
)

// The CLI quantized path end to end: -quantized builds an SQ8 engine,
// /healthz reports the mode, -save-index/-load-index round-trips it
// through the manifest, and the loaded server answers exactly like the
// one that saved it.
func TestQuantSaveLoadFlow(t *testing.T) {
	opts := engine.IndexOpts{Quantized: true, Rerank: 32}
	built, err := buildServer("sift-1b", "hnsw", 500, 2, 2, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(built.Close)

	health := func(s *Server) HealthResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var h HealthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("healthz: code %d err %v", rec.Code, err)
		}
		return h
	}
	if h := health(built); !h.Quantized {
		t.Fatalf("built quantized server reports %+v", h)
	}

	dir := t.TempDir()
	if err := built.engine.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadServer(dir, engine.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(loaded.Close)
	if h := health(loaded); !h.Quantized {
		t.Fatalf("loaded quantized server reports %+v", h)
	}

	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 1, Queries: 4, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range d.Queries {
		req := SearchRequest{Query: asFloats(q), K: 10}
		_, respA := postSearch(t, built.Handler(), req)
		_, respB := postSearch(t, loaded.Handler(), req)
		a, b := respA.Results[0], respB.Results[0]
		if len(a) != len(b) {
			t.Fatalf("loaded returned %d results, built %d", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d: built %+v, loaded %+v", i, a[i], b[i])
			}
		}
	}

	// A full-precision server reports quantized=false, so the field is
	// live, not a constant.
	plain, err := buildServer("sift-1b", "exact", 100, 1, 1, 1, engine.IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(plain.Close)
	if h := health(plain); h.Quantized {
		t.Fatalf("full-precision server reports %+v", h)
	}
}
