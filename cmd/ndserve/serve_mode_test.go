package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
)

// The CLI beyond-RAM path end to end: -save-index then -serve mmap
// serves byte-identical results to RAM serving of the same directory,
// /healthz reports the serving mode and snapshot format version, and
// /stats carries the page counters.
func TestServeModeMmapFlow(t *testing.T) {
	built, err := buildServer("sift-1b", "hnsw", 400, 2, 2, 7, engine.IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(built.Close)
	dir := t.TempDir()
	if err := built.engine.Save(dir); err != nil {
		t.Fatal(err)
	}

	ram, err := loadServer(dir, engine.LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ram.Close)
	paged, err := loadServer(dir, engine.LoadOptions{Workers: 2, Serve: engine.ServeMmap, CachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(paged.Close)

	var health HealthResponse
	rec := httptest.NewRecorder()
	paged.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("healthz: code %d err %v", rec.Code, err)
	}
	if health.Serve != engine.ServeMmap && health.Serve != engine.ServeReadAt {
		t.Fatalf("paged server reports serve %q", health.Serve)
	}
	if health.SnapshotFormat < 3 {
		t.Fatalf("paged server reports snapshot format %d", health.SnapshotFormat)
	}

	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 1, Queries: 6, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range d.Queries {
		req := SearchRequest{Query: asFloats(q), K: 10}
		_, respRAM := postSearch(t, ram.Handler(), req)
		_, respPaged := postSearch(t, paged.Handler(), req)
		a, b := respRAM.Results[0], respPaged.Results[0]
		if len(a) != len(b) {
			t.Fatalf("paged returned %d results, ram %d", len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d: ram %+v, paged %+v", i, a[i], b[i])
			}
		}
	}

	var stats StatsResponse
	rec = httptest.NewRecorder()
	paged.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("stats: code %d err %v", rec.Code, err)
	}
	if stats.Serve != health.Serve {
		t.Fatalf("stats serve %q, healthz says %q", stats.Serve, health.Serve)
	}
	if stats.Pages == nil || stats.Pages.Touches == 0 || stats.Pages.Faults == 0 {
		t.Fatalf("paged /stats pages section missing or idle: %+v", stats.Pages)
	}
	if stats.Pages.IOErrors != 0 {
		t.Fatalf("paged serving hit %d I/O errors", stats.Pages.IOErrors)
	}
	// /metrics carries the same page counters (no traffic in between).
	metrics := get(paged.Handler(), "/metrics").Body.String()
	for sample, v := range map[string]uint64{
		"nd_page_touches_total":   stats.Pages.Touches,
		"nd_page_faults_total":    stats.Pages.Faults,
		"nd_page_io_errors_total": stats.Pages.IOErrors,
		"nd_page_resident_pages":  uint64(stats.Pages.ResidentPages),
	} {
		if line := fmt.Sprintf("%s %d\n", sample, v); !strings.Contains(metrics, line) {
			t.Errorf("/metrics disagrees with /stats pages: missing %q:\n%s", line, metrics)
		}
	}

	// The RAM server's /stats has no pages section and reports serve=ram.
	rec = httptest.NewRecorder()
	ram.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var ramStats StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ramStats); err != nil {
		t.Fatal(err)
	}
	if ramStats.Serve != engine.ServeRAM || ramStats.Pages != nil {
		t.Fatalf("ram /stats reports serve=%q pages=%+v", ramStats.Serve, ramStats.Pages)
	}
}
