// Package graph provides the adjacency structures shared by all the ANNS
// algorithms and by the LUNCSR placement machinery: a mutable adjacency
// graph used during construction, an immutable CSR snapshot used during
// search and placement, plus BFS and degree utilities.
package graph

import (
	"fmt"
	"slices"
)

// Graph is a directed graph over vertices 0..N-1 with bounded out-degree,
// as built by HNSW/Vamana-style constructions.
type Graph struct {
	adj [][]uint32
}

// New creates a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]uint32, n)}
}

// Len returns the number of vertices.
func (g *Graph) Len() int { return len(g.adj) }

// Neighbors returns the out-neighbors of v. The returned slice is owned
// by the graph and must not be modified.
func (g *Graph) Neighbors(v uint32) []uint32 { return g.adj[v] }

// SetNeighbors replaces v's out-neighbor list.
func (g *Graph) SetNeighbors(v uint32, nbrs []uint32) {
	g.adj[v] = nbrs
}

// AddEdge appends an edge v -> w if not already present.
func (g *Graph) AddEdge(v, w uint32) {
	for _, x := range g.adj[v] {
		if x == w {
			return
		}
	}
	g.adj[v] = append(g.adj[v], w)
}

// Degree returns the out-degree of v.
func (g *Graph) Degree(v uint32) int { return len(g.adj[v]) }

// Edges returns the total number of directed edges.
func (g *Graph) Edges() int {
	var e int
	for _, ns := range g.adj {
		e += len(ns)
	}
	return e
}

// MaxDegree returns the largest out-degree in the graph.
func (g *Graph) MaxDegree() int {
	var m int
	for _, ns := range g.adj {
		if len(ns) > m {
			m = len(ns)
		}
	}
	return m
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.Len())
	for v, ns := range g.adj {
		c.adj[v] = append([]uint32(nil), ns...)
	}
	return c
}

// CSR is an immutable compressed-sparse-row snapshot: Offsets has N+1
// entries; the neighbors of v are Neigh[Offsets[v]:Offsets[v+1]]. This is
// the base layout LUNCSR extends with LUN and BLK arrays (§IV-B).
type CSR struct {
	Offsets []uint64
	Neigh   []uint32
}

// ToCSR converts the graph into CSR form.
func (g *Graph) ToCSR() *CSR {
	c := &CSR{
		Offsets: make([]uint64, g.Len()+1),
		Neigh:   make([]uint32, 0, g.Edges()),
	}
	for v, ns := range g.adj {
		c.Offsets[v+1] = c.Offsets[v] + uint64(len(ns))
		c.Neigh = append(c.Neigh, ns...)
	}
	return c
}

// Len returns the number of vertices.
func (c *CSR) Len() int { return len(c.Offsets) - 1 }

// Neighbors returns v's neighbor slice (shared storage; do not modify).
func (c *CSR) Neighbors(v uint32) []uint32 {
	return c.Neigh[c.Offsets[v]:c.Offsets[v+1]]
}

// Degree returns v's out-degree.
func (c *CSR) Degree(v uint32) int {
	return int(c.Offsets[v+1] - c.Offsets[v])
}

// Relabel returns a new graph in which vertex v of g becomes vertex
// perm[v]; edges are rewritten accordingly. perm must be a permutation of
// 0..N-1.
func (g *Graph) Relabel(perm []uint32) (*Graph, error) {
	n := g.Len()
	if len(perm) != n {
		return nil, fmt.Errorf("graph: perm length %d != %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if int(p) >= n || seen[p] {
			return nil, fmt.Errorf("graph: perm is not a permutation (value %d)", p)
		}
		seen[p] = true
	}
	out := New(n)
	for v, ns := range g.adj {
		nv := perm[v]
		nn := make([]uint32, len(ns))
		for i, w := range ns {
			nn[i] = perm[w]
		}
		out.adj[nv] = nn
	}
	return out, nil
}

// BFSOrder returns vertices in breadth-first order from root, visiting
// neighbors via the provided order function (nil means adjacency order).
// Unreached vertices (other components) are appended afterwards in index
// order, matching how reordering must cover the whole store.
func (g *Graph) BFSOrder(root uint32, orderNeighbors func(v uint32, nbrs []uint32) []uint32) []uint32 {
	n := g.Len()
	visited := make([]bool, n)
	order := make([]uint32, 0, n)
	queue := make([]uint32, 0, n)
	enqueue := func(v uint32) {
		if !visited[v] {
			visited[v] = true
			queue = append(queue, v)
		}
	}
	enqueue(root)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		nbrs := g.adj[v]
		if orderNeighbors != nil {
			nbrs = orderNeighbors(v, nbrs)
		}
		for _, w := range nbrs {
			enqueue(w)
		}
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			order = append(order, uint32(v))
		}
	}
	return order
}

// Reach marks in seen every vertex reachable from root that seen does
// not already mark, and returns how many it marked (0 when root is
// already marked). A search that starts at root can only visit marked
// vertices, so a served graph must mark every vertex from its entry.
func (g *Graph) Reach(seen []bool, root uint32) int {
	if seen[root] {
		return 0
	}
	seen[root] = true
	queue := []uint32{root}
	for i := 0; i < len(queue); i++ {
		for _, w := range g.adj[queue[i]] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return len(queue)
}

// Span makes every vertex reachable from root with NSG's spanning
// repair (Fu et al., VLDB 2019) under an out-degree cap: each vertex v
// a BFS from root did not reach, in index order, gets an edge from a
// reached vertex that can take one, and the BFS continues from v. The
// vertex is the first of near(v) that can — near returns the vertices
// a search for v's vector visits, nearest first, so later searches
// near v pass the new edge — or else the one nearest to v by dist
// (ties to the lower ID). A vertex can take an edge into a free slot
// (out-degree below maxDegree) or in place of its farthest out-edge
// that is not a BFS-tree edge, so every reached vertex stays reached;
// with maxDegree >= 1 some vertex always can, since a BFS leaf has no
// tree out-edge. Span returns the number of edges linked: 0, and the
// graph untouched, when root already reaches every vertex.
func (g *Graph) Span(root uint32, maxDegree int, near func(v uint32) []uint32, dist func(v, w uint32) float32) int {
	// parent[v] is v's BFS-tree parent (root is its own), -1 unreached.
	parent := make([]int32, len(g.adj))
	for i := range parent {
		parent[i] = -1
	}
	grow := func(from, v uint32) {
		parent[v] = int32(from)
		for queue := []uint32{v}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, w := range g.adj[u] {
				if parent[w] < 0 {
					parent[w] = int32(u)
					queue = append(queue, w)
				}
			}
		}
	}
	// spare reports whether u's out-edge to w is not a tree edge.
	spare := func(u, w uint32) bool { return parent[w] != int32(u) }
	canTake := func(u uint32) bool {
		return parent[u] >= 0 && (len(g.adj[u]) < maxDegree || slices.ContainsFunc(g.adj[u], func(w uint32) bool { return spare(u, w) }))
	}
	grow(root, root)
	linked := 0
	for v := range g.adj {
		if parent[v] >= 0 {
			continue
		}
		from := -1
		for _, u := range near(uint32(v)) {
			if canTake(u) {
				from = int(u)
				break
			}
		}
		if from < 0 {
			var best float32
			for u := range g.adj {
				if !canTake(uint32(u)) {
					continue
				}
				if d := dist(uint32(v), uint32(u)); from < 0 || d < best {
					from, best = u, d
				}
			}
		}
		u := uint32(from)
		if nbrs := g.adj[u]; len(nbrs) < maxDegree {
			g.adj[u] = append(nbrs, uint32(v))
		} else {
			far, farDist := -1, float32(0)
			for i, w := range nbrs {
				if !spare(u, w) {
					continue
				}
				if d := dist(u, w); far < 0 || d > farDist {
					far, farDist = i, d
				}
			}
			nbrs[far] = uint32(v)
		}
		linked++
		grow(u, uint32(v))
	}
	return linked
}

// MinDegreeVertex returns the vertex with the smallest out-degree,
// breaking ties by lowest index (the paper's deterministic root choice,
// §VI-A1).
func (g *Graph) MinDegreeVertex() uint32 {
	best := uint32(0)
	bestDeg := int(^uint(0) >> 1)
	for v, ns := range g.adj {
		if len(ns) < bestDeg {
			bestDeg = len(ns)
			best = uint32(v)
		}
	}
	return best
}

// Undirected returns a copy with every edge mirrored, used by reordering
// (bandwidth is defined over the undirected structure).
func (g *Graph) Undirected() *Graph {
	u := g.Clone()
	for v, ns := range g.adj {
		for _, w := range ns {
			u.AddEdge(w, uint32(v))
		}
	}
	return u
}
