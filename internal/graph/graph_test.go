package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildSample() *Graph {
	// 0 -> 1,2 ; 1 -> 2 ; 2 -> 0 ; 3 isolated
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	return g
}

func TestBasics(t *testing.T) {
	g := buildSample()
	if g.Len() != 4 {
		t.Errorf("Len = %d", g.Len())
	}
	if g.Edges() != 4 {
		t.Errorf("Edges = %d", g.Edges())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Error("wrong degrees")
	}
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d", g.MaxDegree())
	}
	g.AddEdge(0, 1) // duplicate must be ignored
	if g.Degree(0) != 2 {
		t.Error("duplicate edge added")
	}
}

func TestCSRRoundTrip(t *testing.T) {
	g := buildSample()
	c := g.ToCSR()
	if c.Len() != 4 {
		t.Fatalf("CSR Len = %d", c.Len())
	}
	if c.Degree(0) != 2 || c.Degree(3) != 0 {
		t.Error("CSR degrees wrong")
	}
	ns := c.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 2 {
		t.Errorf("CSR Neighbors(0) = %v", ns)
	}
	for v := range uint32(g.Len()) {
		if !slices.Equal(c.Neighbors(v), g.Neighbors(v)) {
			t.Fatalf("CSR Neighbors(%d) = %v, want %v", v, c.Neighbors(v), g.Neighbors(v))
		}
	}
}

func TestRelabel(t *testing.T) {
	g := buildSample()
	perm := []uint32{3, 2, 1, 0} // reverse
	r, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	// old edge 0->1 becomes 3->2
	found := false
	for _, w := range r.Neighbors(3) {
		if w == 2 {
			found = true
		}
	}
	if !found {
		t.Error("edge 0->1 not relabeled to 3->2")
	}
	if r.Edges() != g.Edges() {
		t.Error("relabel changed edge count")
	}
	if _, err := g.Relabel([]uint32{0, 1}); err == nil {
		t.Error("short perm should fail")
	}
	if _, err := g.Relabel([]uint32{0, 0, 1, 2}); err == nil {
		t.Error("non-permutation should fail")
	}
}

func TestBFSOrderCoversAll(t *testing.T) {
	g := buildSample()
	order := g.BFSOrder(0, nil)
	if len(order) != 4 {
		t.Fatalf("BFS order len = %d", len(order))
	}
	seen := map[uint32]bool{}
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d visited twice", v)
		}
		seen[v] = true
	}
	if order[0] != 0 {
		t.Error("BFS must start at root")
	}
	// Vertex 3 is unreachable and must come last.
	if order[3] != 3 {
		t.Errorf("isolated vertex not appended last: %v", order)
	}
}

func TestReachMarksOnlyNewVertices(t *testing.T) {
	g := buildSample()
	seen := make([]bool, g.Len())
	if got := g.Reach(seen, 1); got != 3 {
		t.Fatalf("Reach from 1 marked %d, want 3", got)
	}
	if seen[3] {
		t.Error("isolated vertex 3 marked")
	}
	if got := g.Reach(seen, 0); got != 0 {
		t.Errorf("Reach from a marked root marked %d, want 0", got)
	}
	if got := g.Reach(seen, 3); got != 1 || !seen[3] {
		t.Errorf("Reach from 3 marked %d (seen %v), want 1", got, seen)
	}
}

func TestSpanLinksUnreachedFromNearestVertex(t *testing.T) {
	// Vertex i sits at point i on a line. From root 1 the BFS tree is
	// 1 -> 2 -> 0; 3 -> 4 is unreached.
	dist := func(v, w uint32) float32 { return float32((int(v) - int(w)) * (int(v) - int(w))) }
	g := New(5)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 1)
	g.AddEdge(3, 4)
	// 3 hangs off its nearest vertex 2, which is full at max degree 2.
	// Its farthest edge, 2 -> 0, is the only way to 0, so the nearer
	// non-tree edge 2 -> 1 makes room.
	if got := g.Span(1, 2, func(uint32) []uint32 { return nil }, dist); got != 1 {
		t.Fatalf("Span linked %d edges, want 1", got)
	}
	if nb := g.Neighbors(2); !slices.Equal(nb, []uint32{0, 3}) {
		t.Errorf("vertex 2's neighbors = %v, want [0 3]", nb)
	}
	if got := g.Reach(make([]bool, g.Len()), 1); got != 5 {
		t.Errorf("after Span, root reaches %d of 5", got)
	}
	if got := g.Span(1, 2, func(uint32) []uint32 { return []uint32{0} }, dist); got != 0 {
		t.Errorf("Span on a spanned graph linked %d edges", got)
	}

	// near's first reached vertex wins over the nearest one: 2 hangs
	// off 0, not 1; the unreached 3 that near names first is passed over.
	g = New(4)
	g.AddEdge(0, 1)
	g.AddEdge(3, 2)
	near := func(v uint32) []uint32 {
		if v == 2 {
			return []uint32{3, 0, 1}
		}
		return nil
	}
	if got := g.Span(0, 2, near, dist); got != 2 {
		t.Fatalf("Span linked %d edges, want 2", got)
	}
	if nb := g.Neighbors(0); !slices.Equal(nb, []uint32{1, 2}) {
		t.Errorf("vertex 0's neighbors = %v, want [1 2]", nb)
	}
}

func TestBFSCustomNeighborOrder(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	rev := func(_ uint32, ns []uint32) []uint32 {
		out := append([]uint32(nil), ns...)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	order := g.BFSOrder(0, rev)
	if order[1] != 2 || order[2] != 1 {
		t.Errorf("custom order ignored: %v", order)
	}
}

func TestMinDegreeVertex(t *testing.T) {
	g := buildSample()
	if got := g.MinDegreeVertex(); got != 3 {
		t.Errorf("MinDegreeVertex = %d, want 3 (isolated)", got)
	}
	// Tie-break: lowest index wins.
	g2 := New(3)
	g2.AddEdge(0, 1)
	if got := g2.MinDegreeVertex(); got != 1 {
		t.Errorf("tie-break failed: got %d, want 1", got)
	}
}

func TestUndirected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	u := g.Undirected()
	found := false
	for _, w := range u.Neighbors(1) {
		if w == 0 {
			found = true
		}
	}
	if !found {
		t.Error("reverse edge missing")
	}
	if g.Degree(1) != 0 {
		t.Error("Undirected mutated the original")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildSample()
	c := g.Clone()
	c.AddEdge(3, 0)
	if g.Degree(3) != 0 {
		t.Error("Clone shares adjacency storage")
	}
}

// Property: for random graphs, CSR round-trips and Relabel by a random
// permutation preserves edge count and degree multiset.
func TestRelabelProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := New(n)
		for e := 0; e < n*2; e++ {
			g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		perm := make([]uint32, n)
		for i := range perm {
			perm[i] = uint32(i)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		r, err := g.Relabel(perm)
		if err != nil {
			return false
		}
		if r.Edges() != g.Edges() {
			return false
		}
		// Degree multiset must be preserved.
		a, b := map[int]int{}, map[int]int{}
		for v := 0; v < n; v++ {
			a[g.Degree(uint32(v))]++
			b[r.Degree(uint32(v))]++
		}
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
