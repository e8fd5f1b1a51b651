package figures

import (
	"math"
	"os"
	"reflect"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
)

// cacheScale keeps the cache tests fast.
func cacheScale() Scale { return Scale{N: 400, Batch: 16, K: 5, Seed: 1} }

// The suite disk cache must be invisible in the output: a workload
// loaded from cache carries the same traced batch and recall as the
// workload that populated it.
func TestSuiteCacheWarmStartIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	for _, algo := range []string{"hnsw", "diskann", "hcnng", "togg"} {
		t.Run(algo, func(t *testing.T) {
			cold := NewSuite(cacheScale())
			cold.CacheDir = dir
			w1, err := cold.Workload("sift-1b", algo)
			if err != nil {
				t.Fatal(err)
			}
			path := cold.cachePath("sift-1b", algo, cacheRevision)
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("cache file not written: %v", err)
			}

			warm := NewSuite(cacheScale())
			warm.CacheDir = dir
			w2, err := warm.Workload("sift-1b", algo)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(w1.Batch, w2.Batch) {
				t.Fatal("cached workload's traced batch differs from the build that populated it")
			}
			if math.Float64bits(w1.Recall10) != math.Float64bits(w2.Recall10) {
				t.Fatalf("recall drifted: %v vs %v", w1.Recall10, w2.Recall10)
			}
			if w1.MaxDegree != w2.MaxDegree {
				t.Fatalf("max degree drifted: %d vs %d", w1.MaxDegree, w2.MaxDegree)
			}
		})
	}
}

// A cache entry built with different hyperparameters (a stale file
// from an older code revision, or a key collision) is rebuilt, not
// served — cached runs must stay byte-identical to cache-less ones.
func TestSuiteCacheRejectsStaleParams(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(cacheScale())
	s.CacheDir = dir
	prof, err := dataset.ProfileByName("glove-100")
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Generate(prof, dataset.GenConfig{N: s.Scale.N, Queries: 1, Seed: s.Scale.Seed})
	if err != nil {
		t.Fatal(err)
	}
	// Plant an index built with a different M under the current key.
	stale, err := hnsw.Build(d.Vectors, hnsw.Config{
		M: 6, EfConstruction: 40, EfSearch: 32, Metric: prof.Metric, Seed: s.Scale.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := s.cachePath("glove-100", "hnsw", cacheRevision)
	if _, _, err := snapshot.SaveFile(path, stale, vec.F32); err != nil {
		t.Fatal(err)
	}

	w, err := s.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := w.Index.(*hnsw.Index)
	if !ok {
		t.Fatalf("workload index is %T", w.Index)
	}
	if got.Params().M != 12 {
		t.Fatalf("stale cache entry served: M = %d, want the current build's 12", got.Params().M)
	}
}

// A cache entry written under another build revision is rebuilt, not
// served, even when its parameters match: a build change that keeps
// Params() (a different graph from the same data and config) is visible
// only through cacheRevision. The planted entry is an HNSW index with
// today's parameters over a different corpus of the same size, which
// cachedIndexCurrent accepts.
func TestSuiteCacheRebuildsOtherRevision(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(cacheScale())
	s.CacheDir = dir
	prof, err := dataset.ProfileByName("glove-100")
	if err != nil {
		t.Fatal(err)
	}
	other, err := dataset.Generate(prof, dataset.GenConfig{N: s.Scale.N, Queries: 1, Seed: s.Scale.Seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hnsw.DefaultConfig(prof.Metric)
	cfg.Seed = s.Scale.Seed
	stale, err := hnsw.Build(other.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !s.cachedIndexCurrent("hnsw", stale, prof.Metric) {
		t.Fatal("planted entry fails the params check; it would not isolate the revision")
	}
	oldPath := s.cachePath("glove-100", "hnsw", cacheRevision-1)
	if _, _, err := snapshot.SaveFile(oldPath, stale, vec.F32); err != nil {
		t.Fatal(err)
	}

	w, err := s.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSuite(cacheScale()).Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Batch, fresh.Batch) {
		t.Fatal("an entry from another revision was served instead of a rebuild")
	}
	if _, err := os.Stat(s.cachePath("glove-100", "hnsw", cacheRevision)); err != nil {
		t.Fatalf("rebuild not cached under the current revision: %v", err)
	}
}

// A corrupt or stale cache entry is rebuilt and overwritten, never
// served.
func TestSuiteCacheRecoversFromCorruption(t *testing.T) {
	dir := t.TempDir()
	s := NewSuite(cacheScale())
	s.CacheDir = dir
	w1, err := s.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	path := s.cachePath("glove-100", "hnsw", cacheRevision)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fresh := NewSuite(cacheScale())
	fresh.CacheDir = dir
	w2, err := fresh.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatalf("corrupt cache entry must trigger a rebuild, got %v", err)
	}
	if !reflect.DeepEqual(w1.Batch, w2.Batch) {
		t.Fatal("rebuild after corruption produced a different workload")
	}
	repaired, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(repaired, data) {
		t.Fatal("corrupt cache file was not overwritten")
	}
}

// Quantized and full-precision suite runs must never share a cache
// entry: the quantized scale writes under a distinct "-sq8" key, the
// loaded index carries the quantized params, and a full-precision
// entry planted under the plain key is not served to a quantized run.
func TestSuiteCacheQuantKeying(t *testing.T) {
	dir := t.TempDir()
	qScale := cacheScale()
	qScale.Quantized = true
	qScale.Rerank = 16

	s := NewSuite(qScale)
	s.CacheDir = dir
	w, err := s.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	path := s.cachePath("glove-100", "hnsw", cacheRevision)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("quantized cache file not written under -sq8 key: %v", err)
	}
	got, ok := w.Index.(*hnsw.Index)
	if !ok {
		t.Fatalf("workload index is %T", w.Index)
	}
	if p := got.Params(); !p.Quantized || p.Rerank != 16 {
		t.Fatalf("quantized suite built params %+v", p)
	}

	// Warm-start from the quantized entry keeps the quantized params.
	warm := NewSuite(qScale)
	warm.CacheDir = dir
	w2, err := warm.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	if p := w2.Index.(*hnsw.Index).Params(); !p.Quantized || p.Rerank != 16 {
		t.Fatalf("warm-started quantized params %+v", p)
	}
	if !reflect.DeepEqual(w.Batch, w2.Batch) {
		t.Fatal("quantized cache warm start changed the traced batch")
	}

	// A full-precision run in the same directory uses the plain key and
	// rebuilds without the sq8 tier.
	plain := NewSuite(cacheScale())
	plain.CacheDir = dir
	wp, err := plain.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	if p := wp.Index.(*hnsw.Index).Params(); p.Quantized || p.Rerank != 0 {
		t.Fatalf("full-precision suite built params %+v", p)
	}
	// A quantized snapshot planted under the plain key fails the
	// staleness check and is rebuilt.
	quantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plainPath := plain.cachePath("glove-100", "hnsw", cacheRevision)
	if err := os.WriteFile(plainPath, quantBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := NewSuite(cacheScale())
	fresh.CacheDir = dir
	wf, err := fresh.Workload("glove-100", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	if p := wf.Index.(*hnsw.Index).Params(); p.Quantized {
		t.Fatalf("quantized entry under the plain key was served: %+v", p)
	}
}
