// Package reorder implements the static-scheduling vertex orderings of
// §VI-A: the paper's degree-ascending breadth-first reordering, the
// random-BFS baseline it compares against, identity (construction)
// order, and the average vertex bandwidth metric β of Eq. 1 that the
// orderings minimise.
package reorder

import (
	"fmt"
	"math/rand"
	"sort"

	"ndsearch/internal/graph"
)

// Method names an ordering strategy, matching the labels of Fig. 14.
type Method string

const (
	// Identity keeps the graph-construction order ("w/o re").
	Identity Method = "w/o re"
	// RandomBFS is breadth-first from a random root with random
	// neighbor visitation ("ran bfs").
	RandomBFS Method = "ran bfs"
	// DegreeAscendingBFS is the paper's deterministic method ("ours"):
	// root at the minimum-degree vertex, neighbors visited in ascending
	// degree order.
	DegreeAscendingBFS Method = "ours"
)

// Order computes a permutation for g using the given method: perm[old]
// is the new index of vertex old (the paper's f). The seed only affects
// RandomBFS.
func Order(g *graph.Graph, m Method, seed int64) ([]uint32, error) {
	switch m {
	case Identity:
		perm := make([]uint32, g.Len())
		for i := range perm {
			perm[i] = uint32(i)
		}
		return perm, nil
	case RandomBFS:
		return randomBFS(g, seed), nil
	case DegreeAscendingBFS:
		return degreeAscendingBFS(g), nil
	default:
		return nil, fmt.Errorf("reorder: unknown method %q", m)
	}
}

// orderFromVisit converts a BFS visit sequence (visit[i] = i-th vertex
// visited) into a permutation perm[old] = new.
func orderFromVisit(visit []uint32) []uint32 {
	perm := make([]uint32, len(visit))
	for newID, old := range visit {
		perm[old] = uint32(newID)
	}
	return perm
}

func randomBFS(g *graph.Graph, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	u := g.Undirected()
	root := uint32(rng.Intn(g.Len()))
	visit := u.BFSOrder(root, func(_ uint32, nbrs []uint32) []uint32 {
		out := append([]uint32(nil), nbrs...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	})
	return orderFromVisit(visit)
}

func degreeAscendingBFS(g *graph.Graph) []uint32 {
	u := g.Undirected()
	root := u.MinDegreeVertex()
	visit := u.BFSOrder(root, func(_ uint32, nbrs []uint32) []uint32 {
		out := append([]uint32(nil), nbrs...)
		sort.Slice(out, func(i, j int) bool {
			di, dj := u.Degree(out[i]), u.Degree(out[j])
			if di != dj {
				return di < dj
			}
			return out[i] < out[j] // deterministic tie-break
		})
		return out
	})
	return orderFromVisit(visit)
}

// Bandwidth computes Eq. 1's average vertex bandwidth β over the
// undirected structure of g under ordering perm:
//
//	β(G, f) = (1/n) Σ_v max_{j ∈ N(v)} |f(v) − f(j)|
//
// Isolated vertices contribute zero.
func Bandwidth(g *graph.Graph, perm []uint32) (float64, error) {
	n := g.Len()
	if len(perm) != n {
		return 0, fmt.Errorf("reorder: perm length %d != %d vertices", len(perm), n)
	}
	if n == 0 {
		return 0, nil
	}
	u := g.Undirected()
	var total float64
	for v := 0; v < n; v++ {
		var worst int64
		fv := int64(perm[v])
		for _, w := range u.Neighbors(uint32(v)) {
			d := fv - int64(perm[w])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		total += float64(worst)
	}
	return total / float64(n), nil
}

// Compare evaluates all three methods on g and returns their β values,
// keyed by method. RandomBFS uses the given seed.
func Compare(g *graph.Graph, seed int64) (map[Method]float64, error) {
	out := make(map[Method]float64, 3)
	for _, m := range []Method{Identity, RandomBFS, DegreeAscendingBFS} {
		perm, err := Order(g, m, seed)
		if err != nil {
			return nil, err
		}
		beta, err := Bandwidth(g, perm)
		if err != nil {
			return nil, err
		}
		out[m] = beta
	}
	return out, nil
}
