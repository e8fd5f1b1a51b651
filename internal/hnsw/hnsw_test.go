package hnsw

import (
	"slices"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

func buildTestIndex(t *testing.T, n int) (*Index, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: n, Queries: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d.Vectors, Config{M: 12, EfConstruction: 100, EfSearch: 64, Metric: vec.L2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return idx, d
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{M: 1, EfConstruction: 10, EfSearch: 10}).Validate(); err == nil {
		t.Error("M=1 must fail")
	}
	if err := (Config{M: 8, EfConstruction: 0, EfSearch: 10}).Validate(); err == nil {
		t.Error("efC=0 must fail")
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

func TestSearchRecall(t *testing.T) {
	idx, d := buildTestIndex(t, 1500)
	recall := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	if recall < 0.9 {
		t.Errorf("recall@10 = %.3f, want >= 0.9", recall)
	}
}

func TestSearchReturnsSortedValidResults(t *testing.T) {
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

func TestSearchSelfQuery(t *testing.T) {
	idx, d := buildTestIndex(t, 400)
	// Querying with an indexed vector should find that vector first.
	hits := 0
	for i := 0; i < 20; i++ {
		res := idx.Search(d.Vectors[i], 1)
		if len(res) == 1 && res[0].ID == uint32(i) {
			hits++
		}
	}
	if hits < 18 {
		t.Errorf("self-query hit %d/20, want >= 18", hits)
	}
}

func TestDeterministicBuild(t *testing.T) {
	d, err := dataset.Generate(dataset.Glove100(), dataset.GenConfig{N: 300, Queries: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{M: 8, EfConstruction: 60, EfSearch: 40, Metric: vec.Angular, Seed: 3}
	a, err := Build(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxLevel() != b.MaxLevel() || a.EntryPoint() != b.EntryPoint() {
		t.Error("identical seeds should give identical hierarchy")
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

func TestDegreeBounds(t *testing.T) {
	idx, _ := buildTestIndex(t, 800)
	maxAllowed := 2 * 12 // Mmax0
	for v := uint32(0); v < uint32(idx.Len()); v++ {
		if d := idx.BaseGraph().Degree(v); d > maxAllowed {
			t.Errorf("vertex %d base degree %d exceeds 2M=%d", v, d, maxAllowed)
		}
	}
}

func TestTraceConsistency(t *testing.T) {
	idx, d := buildTestIndex(t, 600)
	for qi, q := range d.Queries[:5] {
		plain := idx.Search(q, 10)
		traced, tr := idx.SearchTraced(q, 10)
		if len(plain) != len(traced) {
			t.Fatalf("query %d: traced result count differs", qi)
		}
		for i := range plain {
			if plain[i] != traced[i] {
				t.Fatalf("query %d: tracing changed results at %d", qi, i)
			}
		}
		if len(tr.Iters) == 0 {
			t.Fatalf("query %d: empty trace", qi)
		}
		if tr.Length() == 0 {
			t.Fatalf("query %d: zero trace length", qi)
		}
		// Every trace iteration's vertices must be in range.
		for _, it := range tr.Iters {
			if int(it.Entry) >= idx.Len() {
				t.Fatalf("entry %d out of range", it.Entry)
			}
			for _, n := range it.Neighbors {
				if int(n) >= idx.Len() {
					t.Fatalf("neighbor %d out of range", n)
				}
			}
		}
	}
}

func TestTraceCoversResults(t *testing.T) {
	// All result vertices (except possibly the entry point) must appear
	// somewhere in the trace as computed candidates.
	idx, d := buildTestIndex(t, 600)
	res, tr := idx.SearchTraced(d.Queries[0], 10)
	computed := map[uint32]bool{idx.EntryPoint(): true}
	for _, it := range tr.Iters {
		for _, n := range it.Neighbors {
			computed[n] = true
		}
	}
	for _, r := range res {
		if !computed[r.ID] {
			t.Errorf("result %d never appears in the trace", r.ID)
		}
	}
}

func TestSetEfSearchImprovesRecall(t *testing.T) {
	idx, d := buildTestIndex(t, 1200)
	idx.SetBeamWidth(8)
	low := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	idx.SetBeamWidth(128)
	high := ann.MeanRecall(idx, vec.L2, d.Vectors, d.Queries, 10)
	if high < low {
		t.Errorf("recall did not improve with ef: %.3f -> %.3f", low, high)
	}
	idx.SetBeamWidth(0) // ignored
}

func TestKLargerThanEf(t *testing.T) {
	idx, d := buildTestIndex(t, 300)
	res := idx.Search(d.Queries[0], 100)
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if err := ann.Validate(res, idx.Len()); err != nil {
		t.Error(err)
	}
}

func TestSingleVertexIndex(t *testing.T) {
	data := []vec.Vector{{1, 2, 3}}
	idx, err := Build(data, Config{M: 4, EfConstruction: 8, EfSearch: 8, Metric: vec.L2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := idx.Search(vec.Vector{1, 2, 3}, 5)
	if len(res) != 1 || res[0].ID != 0 {
		t.Errorf("single-vertex search = %v", res)
	}
}

// recordingStore logs every distance request and adjacency read a
// traversal makes through it.
type recordingStore struct {
	ann.NodeStore
	dist  int        // single-node Dist calls
	dists [][]uint32 // each Dists call's ids, copied
	reads []uint32   // each Neighbors call's vertex
}

func (r *recordingStore) Dist(q vec.PreparedQuery, v uint32) float32 {
	r.dist++
	return r.NodeStore.Dist(q, v)
}

func (r *recordingStore) Dists(q *vec.PreparedQuery, ids []uint32, out []float32) {
	r.dists = append(r.dists, slices.Clone(ids))
	r.NodeStore.Dists(q, ids, out)
}

func (r *recordingStore) Neighbors(v uint32, buf []uint32) []uint32 {
	r.reads = append(r.reads, v)
	return r.NodeStore.Neighbors(v, buf)
}

// greedyClosest scores each hop's neighbour list with exactly one
// Dists call carrying exactly that list in adjacency order (so a paged
// store touches its pages as per-neighbour calls would), makes a single
// Dist call (the entry), and ends where a per-neighbour walk with the
// same strict < ends.
func TestGreedyClosestOneDistsPerHop(t *testing.T) {
	idx, d := buildTestIndex(t, 600)
	g := idx.Layers()[0]
	store, err := ann.NewKernelStore(vec.L2, idx.Store().(*ann.KernelStore).Matrix(), g, false)
	if err != nil {
		t.Fatal(err)
	}
	for qi, query := range d.Queries {
		rec := &recordingStore{NodeStore: store}
		q := rec.Prepare(query)
		ep := uint32(qi * 29 % g.Len())
		got, gotDist := greedyClosest(ann.NewScratch(), rec, &q, ep, nil)

		// Reference: the per-neighbour walk.
		want, wantDist := ep, store.Dist(q, ep)
		for moved := true; moved; {
			moved = false
			for _, n := range g.Neighbors(want) {
				if dn := store.Dist(q, n); dn < wantDist {
					want, wantDist, moved = n, dn, true
				}
			}
		}
		if got != want || gotDist != wantDist {
			t.Fatalf("query %d: greedyClosest = (%d, %v), per-neighbour walk = (%d, %v)", qi, got, gotDist, want, wantDist)
		}
		if rec.dist != 1 {
			t.Fatalf("query %d: %d Dist calls, want 1 (the entry)", qi, rec.dist)
		}
		if len(rec.dists) != len(rec.reads) || len(rec.reads) == 0 {
			t.Fatalf("query %d: %d Dists calls for %d hops", qi, len(rec.dists), len(rec.reads))
		}
		for h, v := range rec.reads {
			if !slices.Equal(rec.dists[h], g.Neighbors(v)) {
				t.Fatalf("query %d hop %d: Dists(%v), neighbour list of %d is %v", qi, h, rec.dists[h], v, g.Neighbors(v))
			}
		}
	}
}
