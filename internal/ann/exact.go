package ann

import (
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Exact is a brute-force Index over an in-memory corpus: every Search is
// a full scan, so its results are the ground truth. It serves as the
// reference baseline the sharded engine is validated against and as a
// drop-in shard index when exactness matters more than speed. The
// corpus is held in a contiguous vec.Matrix with precomputed norms, so
// the scan runs on the batched kernel path.
type Exact struct {
	kern *vec.Kernel
}

// NewExact copies data into a contiguous flat store under metric m. The
// input slices are not retained.
func NewExact(m vec.Metric, data []vec.Vector) *Exact {
	return &Exact{kern: vec.NewKernel(m, vec.NewMatrix(data))}
}

// ExactFromMatrix wraps an existing flat store under metric m without
// copying — the snapshot warm-start path. The matrix is retained and
// must not be mutated.
func ExactFromMatrix(m vec.Metric, mat *vec.Matrix) *Exact {
	return &Exact{kern: vec.NewKernel(m, mat)}
}

// Metric returns the search metric.
func (e *Exact) Metric() vec.Metric { return e.kern.Metric() }

// Matrix returns the corpus store. Callers must not mutate it.
func (e *Exact) Matrix() *vec.Matrix { return e.kern.Matrix() }

// Search returns the exact top-k neighbors of query. Distances are
// bit-identical to BruteForce over the same corpus: both run the same
// kernel arithmetic (BruteForce computes stored norms on the fly with
// the same accumulation Matrix construction uses).
func (e *Exact) Search(query vec.Vector, k int) []Neighbor {
	return e.SearchFilter(query, k, nil)
}

// SearchFilter returns the exact top-k among the rows skip does not
// reject: skipped rows are dropped from the scan before ranking.
func (e *Exact) SearchFilter(query vec.Vector, k int, skip func(id uint32) bool) []Neighbor {
	n := e.kern.Matrix().Rows()
	if n == 0 {
		return nil
	}
	q := e.kern.Prepare(query)
	dists := make([]float32, n)
	e.kern.DistsAll(q, dists)
	all := make([]Neighbor, 0, n)
	for i, d := range dists {
		if skip == nil || !skip(uint32(i)) {
			all = append(all, Neighbor{ID: uint32(i), Dist: d})
		}
	}
	SortNeighbors(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// SearchTraced returns the exact top-k and a single-iteration trace that
// visits the whole corpus — the degenerate "graph" a full scan induces.
func (e *Exact) SearchTraced(query vec.Vector, k int) ([]Neighbor, trace.Query) {
	res := e.Search(query, k)
	n := e.kern.Matrix().Rows()
	it := trace.Iter{Neighbors: make([]uint32, n)}
	for i := 0; i < n; i++ {
		it.Neighbors[i] = uint32(i)
	}
	if len(res) > 0 {
		it.Entry = res[0].ID
	}
	return res, trace.Query{Iters: []trace.Iter{it}}
}

// Graph returns an edgeless view: a flat scan has no proximity graph.
func (e *Exact) Graph() GraphView { return exactView{n: e.kern.Matrix().Rows()} }

// Len returns the corpus size.
func (e *Exact) Len() int { return e.kern.Matrix().Rows() }

type exactView struct{ n int }

func (v exactView) Len() int                  { return v.n }
func (v exactView) Neighbors(uint32) []uint32 { return nil }
func (v exactView) Degree(uint32) int         { return 0 }
