package ann

import (
	"slices"

	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Scratch is the reusable state of one graph search at a time: the
// visited table, the Frontier (the sorted result list and its overflow
// heap) and the neighbour-ID / distance buffers, so a search on a warmed Scratch allocates only what it
// returns. GraphIndex draws one per search from a pool; a build holds
// one for its whole run. A Scratch must not be shared by concurrent
// searches.
//
// The visited table is epoch-stamped: visited[v] == epoch means v was
// seen by the current search. The epoch is bumped per search and the
// table cleared only when it wraps, so starting a search costs no O(n)
// reset and one Scratch serves stores of different sizes in turn (the
// table only ever grows, to the largest Len() it has met: 4 bytes per
// node per concurrently searching worker).
type Scratch struct {
	visited  []uint32
	epoch    uint32
	frontier Frontier
	nbrs     []uint32  // buf handed to NodeStore.Neighbors; never a store's slice
	ids      []uint32  // one expansion's unvisited neighbours
	dists    []float32 // their distances, filled by NodeStore.Dists
}

// NewScratch returns an empty Scratch; its buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Neighbors returns node v's adjacency through the scratch's own
// buffer, valid until the next call. The buffer-ownership rule lives
// here: a store may return a view of memory it owns (KernelStore
// returns the resident graph's adjacency), so the result is never
// adopted as the next buf — appending into it would rewrite the graph.
// The scratch only grows its own buffer to the longest list it has
// seen, so a materializing store stops allocating after the first few
// calls.
func (s *Scratch) Neighbors(st NodeStore, v uint32) []uint32 {
	out := st.Neighbors(v, s.nbrs[:0])
	if len(out) > cap(s.nbrs) {
		s.nbrs = make([]uint32, 0, 2*len(out))
	}
	return out
}

// Dists scores ids against q with one st.Dists call into the
// scratch's own distance buffer and returns it, valid until the next
// call.
func (s *Scratch) Dists(st NodeStore, q *vec.PreparedQuery, ids []uint32) []float32 {
	dists := slices.Grow(s.dists[:0], len(ids))[:len(ids)]
	s.dists = dists
	st.Dists(q, ids, dists)
	return dists
}

// begin starts a search over n nodes: a fresh epoch on a table of at
// least n stamps.
func (s *Scratch) begin(n int) {
	if n > len(s.visited) {
		s.visited = append(s.visited, make([]uint32, n-len(s.visited))...)
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stamps from 2^32 searches ago would read as current
		clear(s.visited)
		s.epoch = 1
	}
}

// BeamSearch is the ef-bounded best-first graph traversal every family
// refinement stage runs (the paper's candidate-list/result-list loop,
// §II-A), expressed over the NodeStore boundary: distances and
// adjacency both come from st, so the same loop serves in-RAM slices
// and paged snapshot blocks byte-identically. start must carry its
// distance (st.Dist of the entry point); ef bounds the result list and
// is clamped to st.Len() — a result list can never be longer, so the
// Frontier is sized by the index, not by the caller. With a skip
// predicate the list may end shorter than ef: skipped vertices never
// fill it.
//
// Each expansion filters the popped vertex's unvisited neighbours into
// s, scores them in one st.Dists call and admits them in adjacency
// order; distance evaluation has no side effects on the frontier, so
// this is step for step the per-neighbour loop. When tr is non-nil
// every expansion appends a trace iteration listing the neighbours
// scored. When scored is non-nil every scored vertex — start included —
// is appended to it in scoring order (Vamana's construction prunes
// over that set).
//
// skip, when non-nil, names vertices that route but are never returned
// (the engine's shadowed base copies): a competitive scored vertex —
// start included — that skip rejects becomes a candidate only (the
// Frontier's overflow heap), so the traversal still expands through it
// but the result list never holds it. skip is asked only about competitive vertices, the few the
// beam admits, never about every scored one. A nil skip is the plain
// loop.
//
// BeamSearch returns a copy of the whole result list, which the
// Frontier keeps sorted (rerank and builds read all of it); a search
// that keeps only the head runs beam and copies s's frontier's TopK.
func BeamSearch(s *Scratch, st NodeStore, q *vec.PreparedQuery, start Neighbor, ef int, tr *trace.Query, scored *[]Neighbor, skip func(id uint32) bool) []Neighbor {
	beam(s, st, q, start, ef, tr, scored, skip)
	return s.frontier.Results()
}

// beam is BeamSearch's traversal, leaving the sorted result list in
// s's frontier.
func beam(s *Scratch, st NodeStore, q *vec.PreparedQuery, start Neighbor, ef int, tr *trace.Query, scored *[]Neighbor, skip func(id uint32) bool) {
	n := st.Len()
	s.begin(n)
	visited, epoch := s.visited, s.epoch
	f := &s.frontier
	f.reset(min(ef, n))
	visited[start.ID] = epoch
	if skip == nil {
		f.Push(start)
	} else {
		f.pushFiltered(start, skip)
	}
	if scored != nil {
		*scored = append(*scored, start)
	}
	for {
		c, ok := f.PopNearest()
		if !ok {
			break
		}
		if worst, full := f.WorstDist(); full && c.Dist > worst {
			break
		}
		ids := s.ids[:0]
		for _, v := range s.Neighbors(st, c.ID) {
			if visited[v] != epoch {
				visited[v] = epoch
				ids = append(ids, v)
			}
		}
		s.ids = ids
		if len(ids) == 0 {
			continue
		}
		dists := s.Dists(st, q, ids)
		for i, v := range ids {
			n := Neighbor{ID: v, Dist: dists[i]}
			if skip == nil {
				f.Push(n)
			} else {
				f.pushFiltered(n, skip)
			}
			if scored != nil {
				*scored = append(*scored, n)
			}
		}
		if tr != nil {
			tr.Iters = append(tr.Iters, trace.Iter{Entry: c.ID, Neighbors: slices.Clone(ids)})
		}
	}
}
