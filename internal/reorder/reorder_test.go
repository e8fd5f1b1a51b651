package reorder

import (
	"math/rand"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/graph"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/vec"
)

// fig10Graph builds a small-world-ish 8-vertex graph in the spirit of the
// paper's Fig. 10 example: one low-degree tail (h-g) hanging off a dense
// hub (d) with interconnected spokes.
func fig10Graph() *graph.Graph {
	g := graph.New(8)
	// a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7
	edges := [][2]uint32{
		{3, 0}, {3, 2}, {3, 4}, {3, 5}, {3, 6}, // hub d
		{6, 7},         // tail g-h
		{0, 1}, {0, 2}, // a-b, a-c
		{2, 1}, {2, 4}, // c-b, c-e
		{4, 5}, // e-f
		{5, 1}, // f-b
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
		g.AddEdge(e[1], e[0])
	}
	return g
}

func isPermutation(perm []uint32, n int) bool {
	if len(perm) != n {
		return false
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

func TestOrderProducesPermutations(t *testing.T) {
	g := fig10Graph()
	for _, m := range []Method{Identity, RandomBFS, DegreeAscendingBFS} {
		perm, err := Order(g, m, 42)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !isPermutation(perm, g.Len()) {
			t.Errorf("%s: not a permutation: %v", m, perm)
		}
	}
	if _, err := Order(g, Method("bogus"), 0); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestIdentityIsIdentity(t *testing.T) {
	g := fig10Graph()
	perm, _ := Order(g, Identity, 0)
	for i, p := range perm {
		if int(p) != i {
			t.Fatalf("identity perm[%d] = %d", i, p)
		}
	}
}

func TestDegreeAscendingDeterministic(t *testing.T) {
	g := fig10Graph()
	a, _ := Order(g, DegreeAscendingBFS, 1)
	b, _ := Order(g, DegreeAscendingBFS, 999) // seed must not matter
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("degree-ascending BFS is not deterministic")
		}
	}
}

func TestDegreeAscendingRootIsMinDegree(t *testing.T) {
	g := fig10Graph()
	perm, _ := Order(g, DegreeAscendingBFS, 0)
	// Vertex h (7) has degree 1, the minimum; it must be renumbered 0.
	if perm[7] != 0 {
		t.Errorf("min-degree vertex got new id %d, want 0", perm[7])
	}
	// Its only neighbor g (6) must be next.
	if perm[6] != 1 {
		t.Errorf("tail neighbor got new id %d, want 1", perm[6])
	}
}

func TestBandwidthHandComputed(t *testing.T) {
	// Path 0-1-2 under identity: β = (1 + 1 + 1)/3 = 1.
	g := graph.New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	id, _ := Order(g, Identity, 0)
	beta, err := Bandwidth(g, id)
	if err != nil {
		t.Fatal(err)
	}
	if beta != 1 {
		t.Errorf("path β = %v, want 1", beta)
	}
	// Swap the ends: 1<->... perm {2,1,0} keeps the path shape: still 1.
	beta2, _ := Bandwidth(g, []uint32{2, 1, 0})
	if beta2 != 1 {
		t.Errorf("reversed path β = %v, want 1", beta2)
	}
	// Bad ordering 0,2,1: edges (0,1):|0-2|=2, (1,2):|2-1|=1 → (2+2+2... )
	// vertex0 worst=2, vertex1 worst=max(2,1)=2, vertex2 worst=1 → 5/3.
	beta3, _ := Bandwidth(g, []uint32{0, 2, 1})
	if beta3 < 1.66 || beta3 > 1.67 {
		t.Errorf("bad ordering β = %v, want 5/3", beta3)
	}
}

func TestBandwidthValidation(t *testing.T) {
	g := fig10Graph()
	if _, err := Bandwidth(g, []uint32{0, 1}); err == nil {
		t.Error("short perm must fail")
	}
	empty := graph.New(0)
	beta, err := Bandwidth(empty, nil)
	if err != nil || beta != 0 {
		t.Errorf("empty graph β = %v, %v", beta, err)
	}
}

func TestOursBeatsRandomConstructionOrderOnFig10(t *testing.T) {
	// The paper's premise (§VI-A) is that construction order is random.
	// Scramble the labels to simulate that, then check our reordering
	// recovers a better (or equal) β than the scrambled identity.
	base := fig10Graph()
	scramble := []uint32{5, 0, 7, 2, 6, 1, 4, 3}
	g, err := base.Relabel(scramble)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compare(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res[DegreeAscendingBFS] > res[Identity] {
		t.Errorf("ours β=%.3f worse than random construction order β=%.3f",
			res[DegreeAscendingBFS], res[Identity])
	}
}

func TestOursCompetitiveOnANNSGraph(t *testing.T) {
	// On a real proximity graph our method must beat identity order and
	// be no worse than random BFS on average (paper Fig. 10: 3.625 vs
	// 5.125/4 random vs 5.875 original).
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 800, Queries: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := hnsw.Build(d.Vectors, hnsw.Config{M: 8, EfConstruction: 60, EfSearch: 32, Metric: vec.L2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := idx.BaseGraph()
	id, _ := Order(g, Identity, 0)
	ours, _ := Order(g, DegreeAscendingBFS, 0)
	bid, _ := Bandwidth(g, id)
	bours, _ := Bandwidth(g, ours)
	if bours >= bid {
		t.Errorf("ours β=%.1f not better than identity β=%.1f", bours, bid)
	}
	// Average several random BFS runs (the randomness the paper complains
	// about) and require ours to be at least competitive.
	var sum float64
	const runs = 5
	for s := int64(0); s < runs; s++ {
		p, _ := Order(g, RandomBFS, s)
		b, _ := Bandwidth(g, p)
		sum += b
	}
	if bours > sum/runs*1.1 {
		t.Errorf("ours β=%.1f much worse than avg random BFS β=%.1f", bours, sum/runs)
	}
}

func TestApplyPreservesStructure(t *testing.T) {
	g := fig10Graph()
	perm, _ := Order(g, DegreeAscendingBFS, 0)
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if r.Edges() != g.Edges() {
		t.Error("Relabel changed edge count")
	}
	// β computed on the relabeled graph under identity equals β of the
	// original under perm.
	idNew := make([]uint32, r.Len())
	for i := range idNew {
		idNew[i] = uint32(i)
	}
	b1, _ := Bandwidth(g, perm)
	b2, _ := Bandwidth(r, idNew)
	if b1 != b2 {
		t.Errorf("β not invariant under relabel: %v vs %v", b1, b2)
	}
}

func TestRandomBFSSeedVariance(t *testing.T) {
	g := fig10Graph()
	rng := rand.New(rand.NewSource(1))
	_ = rng
	a, _ := Order(g, RandomBFS, 1)
	b, _ := Order(g, RandomBFS, 2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should usually produce different BFS orders")
	}
}
