package ann

import (
	"fmt"
	"sync"

	"ndsearch/internal/graph"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// SeedFunc is the one step of a graph search that differs per family:
// routing a prepared query from the index's entry vertex to the vertex
// the beam search starts from, returned with its traversal distance.
// HNSW descends greedily through its pinned upper layers, TOGG takes
// guided hops, Vamana and HCNNG start at the entry itself (a nil
// SeedFunc). Adjacency reads go through s, the search's Scratch.
// Expansions are appended to tr when it is non-nil.
type SeedFunc func(s *Scratch, st NodeStore, q *vec.PreparedQuery, entry uint32, tr *trace.Query) Neighbor

// entrySeed is the nil SeedFunc: the beam starts at the entry vertex.
func entrySeed(_ *Scratch, st NodeStore, q *vec.PreparedQuery, entry uint32, _ *trace.Query) Neighbor {
	return Neighbor{ID: entry, Dist: st.Dist(*q, entry)}
}

// scratchPool recycles search scratches across queries, indexes and
// shards: whichever worker runs a search borrows one for its duration.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GraphIndex is the served half of a graph index, shared by every
// graph-traversal family: a NodeStore (resident or paged), the entry
// vertex, the beam width, the quantized/rerank mode, and the family's
// SeedFunc. It owns the only search implementation — seed, BeamSearch,
// then exact rerank (quantized) or truncation — so one loop serves
// every family in every serving mode. Families embed it next to their
// own Config and navigation data.
type GraphIndex struct {
	store     NodeStore
	seed      SeedFunc
	metric    vec.Metric
	entry     uint32
	beam      int
	quantized bool
	rerank    int
}

// NewGraphIndex assembles the served index over store and applies the
// reconstruction checks every family shares: a non-empty store, an
// entry vertex inside it, and a quantized flag that matches the
// store's traversal representation. seed is bound here, once, not per
// query; nil starts the beam at entry.
func NewGraphIndex(store NodeStore, metric vec.Metric, entry uint32, beam int, quantized bool, rerank int, seed SeedFunc) (GraphIndex, error) {
	n := store.Len()
	if n == 0 {
		return GraphIndex{}, fmt.Errorf("%w: empty store", ErrBadConfig)
	}
	if int(entry) >= n {
		return GraphIndex{}, fmt.Errorf("%w: entry %d out of range %d", ErrBadConfig, entry, n)
	}
	if quantized != store.Quantized() {
		return GraphIndex{}, fmt.Errorf("%w: config quantized=%v but store quantized=%v", ErrBadConfig, quantized, store.Quantized())
	}
	if seed == nil {
		seed = entrySeed
	}
	return GraphIndex{
		store: store, seed: seed, metric: metric,
		entry: entry, beam: beam, quantized: quantized, rerank: rerank,
	}, nil
}

// Search returns the approximate top-k neighbors of query.
func (g *GraphIndex) Search(query vec.Vector, k int) []Neighbor {
	return g.SearchFilter(query, k, nil)
}

// SearchFilter returns the approximate top-k neighbors of query that
// skip does not reject. The seed descent only routes, so it runs
// unfiltered; skip applies to the beam's result list.
func (g *GraphIndex) SearchFilter(query vec.Vector, k int, skip func(id uint32) bool) []Neighbor {
	return g.search(query, k, nil, skip)
}

// SearchTraced returns the top-k neighbors and the traversal trace.
func (g *GraphIndex) SearchTraced(query vec.Vector, k int) ([]Neighbor, trace.Query) {
	tr := trace.Query{}
	res := g.search(query, k, &tr, nil)
	return res, tr
}

func (g *GraphIndex) search(query vec.Vector, k int, tr *trace.Query, skip func(id uint32) bool) []Neighbor {
	st := g.store
	q := st.Prepare(query)
	s := scratchPool.Get().(*Scratch)
	start := g.seed(s, st, &q, g.entry, tr)
	beam(s, st, &q, start, max(g.beam, k), tr, nil, skip)
	if !g.quantized {
		// Only the head is returned: select it, do not sort the beam.
		res := s.frontier.TopK(k)
		scratchPool.Put(s)
		return res
	}
	res := s.frontier.Results()
	scratchPool.Put(s)
	// Code-space distances ordered the candidates; the head is re-scored
	// exactly so returned distances are in metric units and the
	// (distance, ID) total order holds.
	return RerankExactStore(st, query, res, g.rerank, k)
}

// Store returns the traversal/storage boundary the index searches
// through.
func (g *GraphIndex) Store() NodeStore { return g.store }

// Len returns the number of indexed vectors.
func (g *GraphIndex) Len() int { return g.store.Len() }

// Metric returns the distance metric the index searches under.
func (g *GraphIndex) Metric() vec.Metric { return g.metric }

// Entry returns the vertex every search is seeded from.
func (g *GraphIndex) Entry() uint32 { return g.entry }

// BeamWidth returns the current search beam width.
func (g *GraphIndex) BeamWidth() int { return g.beam }

// SetBeamWidth implements Tunable; values < 1 are ignored.
func (g *GraphIndex) SetBeamWidth(w int) {
	if w >= 1 {
		g.beam = w
	}
}

// BaseGraph returns the mutable base graph of a resident (KernelStore)
// index, for placement experiments and snapshot saving; nil when the
// store is paged.
func (g *GraphIndex) BaseGraph() *graph.Graph {
	if ks, ok := g.store.(*KernelStore); ok {
		return ks.BaseGraph()
	}
	return nil
}
