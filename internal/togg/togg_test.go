package togg

import (
	"reflect"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/vec"
)

func buildTestIndex(t *testing.T, n int) (*Index, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: n, Queries: 15, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d.Vectors, Config{K: 12, GuideDims: 8, GuideHops: 32, LSearch: 64, Metric: vec.L2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	return idx, d
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{K: 1, GuideDims: 4, GuideHops: 4, LSearch: 4}).Validate(); err == nil {
		t.Error("K=1 must fail")
	}
	if err := (Config{K: 8, GuideDims: 0, GuideHops: 4, LSearch: 4}).Validate(); err == nil {
		t.Error("GuideDims=0 must fail")
	}
	if err := DefaultConfig(vec.L2).Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil, DefaultConfig(vec.L2)); err == nil {
		t.Error("empty dataset must fail")
	}
}

func TestRecall(t *testing.T) {
	idx, d := buildTestIndex(t, 900)
	recall := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	if recall < 0.8 {
		t.Errorf("recall@10 = %.3f, want >= 0.8", recall)
	}
}

// TOGG routes over HNSW's base layer from HNSW's entry: the same M and
// seed give the same adjacency and entry, in both traversal modes.
func TestBaseIsHNSWLevelZero(t *testing.T) {
	d, err := dataset.Generate(dataset.Glove100(), dataset.GenConfig{N: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, quantized := range []bool{false, true} {
		cfg := Config{K: 5, GuideDims: 4, GuideHops: 8, LSearch: 16, Metric: vec.Angular, Seed: 2, Quantized: quantized}
		idx, err := Build(d.Vectors, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hcfg := hnsw.DefaultConfig(vec.Angular)
		hcfg.M, hcfg.Seed, hcfg.Quantized = cfg.K, cfg.Seed, quantized
		base, err := hnsw.Build(d.Vectors, hcfg)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Entry() != base.Entry() {
			t.Errorf("quantized=%v: entry %d, HNSW entry %d", quantized, idx.Entry(), base.Entry())
		}
		if !reflect.DeepEqual(idx.BaseGraph(), base.BaseGraph()) {
			t.Errorf("quantized=%v: base graph differs from HNSW's level 0", quantized)
		}
	}
}

func TestGuideDimsSelected(t *testing.T) {
	idx, _ := buildTestIndex(t, 200)
	dims := idx.GuideDims()
	if len(dims) != 8 {
		t.Fatalf("GuideDims len = %d", len(dims))
	}
	seen := map[int]bool{}
	for _, d := range dims {
		if d < 0 || d >= 128 || seen[d] {
			t.Errorf("bad guide dim %d", d)
		}
		seen[d] = true
	}
}

func TestTraceConsistency(t *testing.T) {
	idx, d := buildTestIndex(t, 400)
	plain := idx.Search(d.Queries[0], 10)
	traced, tr := idx.SearchTraced(d.Queries[0], 10)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatal("tracing changed results")
		}
	}
	if tr.Length() == 0 {
		t.Fatal("empty trace")
	}
}

func TestTwoStageShortensRoute(t *testing.T) {
	// The guided stage should land stage two near the query: the traced
	// search must never have an absurdly long iteration count.
	idx, d := buildTestIndex(t, 600)
	for _, q := range d.Queries[:5] {
		_, tr := idx.SearchTraced(q, 10)
		if len(tr.Iters) > 400 {
			t.Errorf("route too long: %d iterations", len(tr.Iters))
		}
	}
}

func TestValidResults(t *testing.T) {
	idx, d := buildTestIndex(t, 300)
	for _, q := range d.Queries[:5] {
		res := idx.Search(q, 5)
		if err := ann.Validate(res, idx.Len()); err != nil {
			t.Error(err)
		}
	}
}
