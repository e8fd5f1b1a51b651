package vamana

import (
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

func buildTestIndex(t *testing.T, n int) (*Index, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.Deep1B(), dataset.GenConfig{N: n, Queries: 20, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d.Vectors, Config{R: 24, L: 60, LSearch: 64, Alpha: 1.2, Metric: vec.L2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	return idx, d
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{R: 1, L: 10, LSearch: 10, Alpha: 1.2}).Validate(); err == nil {
		t.Error("R=1 must fail")
	}
	if err := (Config{R: 8, L: 0, LSearch: 10, Alpha: 1.2}).Validate(); err == nil {
		t.Error("L=0 must fail")
	}
	if err := (Config{R: 8, L: 10, LSearch: 10, Alpha: 0.5}).Validate(); err == nil {
		t.Error("alpha<1 must fail")
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

func TestDegreeBound(t *testing.T) {
	idx, _ := buildTestIndex(t, 700)
	for v := uint32(0); v < uint32(idx.Len()); v++ {
		if d := idx.BaseGraph().Degree(v); d > 24 {
			t.Errorf("vertex %d degree %d exceeds R=24", v, d)
		}
	}
}

func TestSearchRecall(t *testing.T) {
	idx, d := buildTestIndex(t, 1500)
	recall := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	if recall < 0.85 {
		t.Errorf("recall@10 = %.3f, want >= 0.85", recall)
	}
}

func TestSearchValidResults(t *testing.T) {
	idx, d := buildTestIndex(t, 500)
	for _, q := range d.Queries[:5] {
		res := idx.Search(q, 10)
		if len(res) != 10 {
			t.Fatalf("got %d results", len(res))
		}
		if err := ann.Validate(res, idx.Len()); err != nil {
			t.Error(err)
		}
	}
}

func TestDeterministicBuild(t *testing.T) {
	d, err := dataset.Generate(dataset.SpaceV1B(), dataset.GenConfig{N: 300, Queries: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{R: 16, L: 40, LSearch: 32, Alpha: 1.2, Metric: vec.L2, Seed: 4}
	a, err := Build(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Medoid() != b.Medoid() {
		t.Error("medoid differs across identical builds")
	}
	for v := uint32(0); v < uint32(a.Len()); v++ {
		na, nb := a.BaseGraph().Neighbors(v), b.BaseGraph().Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbor %d differs", v, i)
			}
		}
	}
}

func TestTraceConsistency(t *testing.T) {
	idx, d := buildTestIndex(t, 600)
	for qi, q := range d.Queries[:5] {
		plain := idx.Search(q, 10)
		traced, tr := idx.SearchTraced(q, 10)
		for i := range plain {
			if plain[i] != traced[i] {
				t.Fatalf("query %d: tracing changed results", qi)
			}
		}
		if tr.Length() == 0 {
			t.Fatalf("query %d: empty trace", qi)
		}
		for _, it := range tr.Iters {
			if int(it.Entry) >= idx.Len() {
				t.Fatalf("entry %d out of range", it.Entry)
			}
		}
	}
}

func TestGraphConnectivityFromMedoid(t *testing.T) {
	// Beam search must be able to reach most of the graph from the
	// medoid; otherwise recall would be luck. Check BFS coverage.
	idx, _ := buildTestIndex(t, 400)
	g := idx.BaseGraph()
	order := g.BFSOrder(idx.Medoid(), nil)
	reached := 0
	visited := make(map[uint32]bool)
	for _, v := range order {
		visited[v] = true
	}
	// BFSOrder appends unreachable vertices too; re-walk to count only
	// genuinely reachable ones.
	seen := map[uint32]bool{idx.Medoid(): true}
	queue := []uint32{idx.Medoid()}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		reached++
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	if float64(reached) < 0.95*float64(idx.Len()) {
		t.Errorf("only %d/%d vertices reachable from medoid", reached, idx.Len())
	}
}

func TestSetLSearch(t *testing.T) {
	idx, d := buildTestIndex(t, 1000)
	idx.SetBeamWidth(8)
	low := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	idx.SetBeamWidth(128)
	high := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	if high < low {
		t.Errorf("recall did not improve with L: %.3f -> %.3f", low, high)
	}
}

func TestSingleVertex(t *testing.T) {
	idx, err := Build([]vec.Vector{{1, 1}}, Config{R: 4, L: 4, LSearch: 4, Alpha: 1.1, Metric: vec.L2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search(vec.Vector{1, 1}, 3)
	if len(res) != 1 || res[0].ID != 0 {
		t.Errorf("single-vertex search = %v", res)
	}
}
