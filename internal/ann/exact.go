package ann

import (
	"slices"

	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Exact is a brute-force Index over a NodeStore: every Search is a full
// scan, so its results are the ground truth. It serves as the
// reference baseline the sharded engine is validated against and as a
// drop-in shard index when exactness matters more than speed. Built or
// loaded resident, the store is a KernelStore over a contiguous
// vec.Matrix with an edgeless graph, so the scan runs on the batched
// kernel path; served paged, it is the snapshot's record store and the
// scan reads every record through the page cache.
type Exact struct {
	store  NodeStore
	metric vec.Metric
}

// scanChunk is how many records Exact scores per batched Dists call,
// into the pooled search scratch's id and distance buffers, so a scan
// allocates no n-long list.
const scanChunk = 256

// NewExact copies data into a contiguous flat store under metric m. The
// input slices are not retained.
func NewExact(m vec.Metric, data []vec.Vector) *Exact {
	return &Exact{store: FlatStore(m, data), metric: m}
}

// ExactFromStore serves an exact scan over an existing store (the
// snapshot path: resident or paged). The store must not be quantized: a
// quantized store's Dists are code-space keys, not metric distances.
func ExactFromStore(m vec.Metric, store NodeStore) *Exact {
	return &Exact{store: store, metric: m}
}

// Metric returns the search metric.
func (e *Exact) Metric() vec.Metric { return e.metric }

// Store returns the store the scan reads.
func (e *Exact) Store() NodeStore { return e.store }

// Search returns the exact top-k neighbors of query. Distances are
// bit-identical to BruteForce over the same corpus: both run the same
// kernel arithmetic (BruteForce computes stored norms on the fly with
// the same accumulation Matrix construction uses).
func (e *Exact) Search(query vec.Vector, k int) []Neighbor {
	return e.SearchFilter(query, k, nil)
}

// SearchFilter returns the exact top-k among the rows skip does not
// reject: skipped rows are dropped from the scan before ranking. Rows
// are scored scanChunk at a time and folded through a bounded Frontier,
// whose (distance, ID) admission keeps exactly the top k a full sort
// would.
func (e *Exact) SearchFilter(query vec.Vector, k int, skip func(id uint32) bool) []Neighbor {
	n := e.store.Len()
	if n == 0 {
		return nil
	}
	q := e.store.Prepare(query)
	s := scratchPool.Get().(*Scratch)
	s.frontier.reset(k)
	s.ids = slices.Grow(s.ids[:0], scanChunk)
	for lo := 0; lo < n; lo += scanChunk {
		ids := s.ids[:min(scanChunk, n-lo)]
		for j := range ids {
			ids[j] = uint32(lo + j)
		}
		for j, d := range s.Dists(e.store, &q, ids) {
			if skip == nil || !skip(ids[j]) {
				s.frontier.PushResult(Neighbor{ID: ids[j], Dist: d})
			}
		}
	}
	res := s.frontier.TopK(k)
	scratchPool.Put(s)
	return res
}

// SearchTraced returns the exact top-k and a single-iteration trace that
// visits the whole corpus — the degenerate "graph" a full scan induces.
func (e *Exact) SearchTraced(query vec.Vector, k int) ([]Neighbor, trace.Query) {
	res := e.Search(query, k)
	n := e.store.Len()
	it := trace.Iter{Neighbors: make([]uint32, n)}
	for i := 0; i < n; i++ {
		it.Neighbors[i] = uint32(i)
	}
	if len(res) > 0 {
		it.Entry = res[0].ID
	}
	return res, trace.Query{Iters: []trace.Iter{it}}
}

// Len returns the corpus size.
func (e *Exact) Len() int { return e.store.Len() }
