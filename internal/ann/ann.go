// Package ann defines the interfaces shared by every ANNS algorithm in
// the repository (HNSW, Vamana/DiskANN, HCNNG, TOGG), the exact
// brute-force baseline, recall computation, and the candidate/result
// list machinery the graph traversals use.
package ann

import (
	"fmt"
	"slices"

	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Neighbor is one search result: a vertex and its distance to the query.
type Neighbor struct {
	ID   uint32
	Dist float32
}

// Index is the common search interface over a built ANNS index — the
// one shard contract: every family (the four graph families, Exact,
// ivfpq), built in-process, loaded resident, or served paged, is one.
type Index interface {
	// Search returns the approximate top-k neighbors of query; it is
	// SearchFilter with a nil skip.
	Search(query vec.Vector, k int) []Neighbor
	// SearchFilter returns the approximate top-k neighbors of query among
	// the vectors skip does not reject (index-local IDs; nil rejects
	// none). Skipped vectors may still route a graph traversal but are
	// never returned.
	SearchFilter(query vec.Vector, k int, skip func(id uint32) bool) []Neighbor
	// SearchTraced behaves like Search and additionally records the
	// graph-traversal trace (entry vertex and candidate neighbors per
	// iteration) that the platform simulators consume.
	SearchTraced(query vec.Vector, k int) ([]Neighbor, trace.Query)
	// Len returns the number of indexed vectors.
	Len() int
	// Metric returns the distance metric the index was built with.
	Metric() vec.Metric
	// Store returns the NodeStore the index reads its records through:
	// a *KernelStore when the index is resident (built or loaded into
	// RAM), the snapshot's paged store when it is served from a file.
	// Its Neighbors are the index's base-layer adjacency (none for a
	// flat family); CopyGraph copies them out for placement.
	Store() NodeStore
}

// Tunable is an index whose search beam width (HNSW's efSearch,
// DiskANN's L, the candidate-list budget in HCNNG/TOGG) can be adjusted
// after construction.
type Tunable interface {
	Index
	// SetBeamWidth adjusts the search-time candidate budget; values < 1
	// are ignored.
	SetBeamWidth(int)
}

// BruteForce scans the whole corpus and returns the exact top-k under
// metric m — the ground truth for recall. It runs on the kernel path
// (query preprocessed once, unrolled inner loops), so its distances are
// bit-identical to Exact and the sharded engine's exact shards.
func BruteForce(m vec.Metric, data []vec.Vector, query vec.Vector, k int) []Neighbor {
	q := vec.PrepareQuery(m, query)
	all := make([]Neighbor, len(data))
	for i, v := range data {
		all[i] = Neighbor{ID: uint32(i), Dist: q.DistanceTo(v)}
	}
	SortNeighbors(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}

// Recall returns |approx ∩ exact| / |exact| — the standard recall@k with
// both lists truncated to k.
func Recall(approx, exact []Neighbor, k int) float64 {
	if k <= 0 || len(exact) == 0 {
		return 0
	}
	if k > len(exact) {
		k = len(exact)
	}
	truth := make(map[uint32]bool, k)
	for _, n := range exact[:k] {
		truth[n.ID] = true
	}
	hits := 0
	limit := k
	if limit > len(approx) {
		limit = len(approx)
	}
	for _, n := range approx[:limit] {
		if truth[n.ID] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// MeanRecall evaluates idx over the queries against brute-force ground
// truth and returns the average recall@k.
func MeanRecall(idx Index, m vec.Metric, data, queries []vec.Vector, k int) float64 {
	if len(queries) == 0 {
		return 0
	}
	var sum float64
	for _, q := range queries {
		exact := BruteForce(m, data, q, k)
		approx := idx.Search(q, k)
		sum += Recall(approx, exact, k)
	}
	return sum / float64(len(queries))
}

// less is the package's strict (distance, ID) total order.
func less(a, b Neighbor) bool {
	return a.Dist < b.Dist || (a.Dist == b.Dist && a.ID < b.ID)
}

// SortNeighbors sorts ascending by (distance, ID).
func SortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// ---- candidate list / result list ----------------------------------

// minPush and minFix keep the overflow min-heap (nearest at the root), a
// plain []Neighbor binary heap with hand-written sifts: no
// container/heap, so no Neighbor is boxed into an interface and a reused
// Frontier allocates nothing.
func minPush(h []Neighbor, n Neighbor) []Neighbor {
	h = append(h, n)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(n, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = n
	return h
}

// minFix restores the min-heap after its root was overwritten.
func minFix(h []Neighbor) {
	n, i := h[0], 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], n) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = n
}

// Frontier is the best-first candidate pool used by greedy graph search:
// the paper's "candidate list" and "result list" (§II-A) kept as one
// sorted array, as DiskANN and NSG keep it. list holds the best ef
// neighbours seen so far in ascending (distance, ID) order, each with an
// expanded flag, and cursor indexes the first entry not yet expanded.
// The candidates that are not list members — competitive vertices a
// skip predicate kept out of the results, and entries evicted from the
// list before they were expanded — wait in overflow, a small min-heap.
// The nearest unexpanded candidate is therefore the smaller of
// list[cursor] and overflow's root: the same vertex a candidate
// min-heap holding every pushed, unpopped neighbour would yield.
type Frontier struct {
	list     []listEntry
	cursor   int // first i with !list[i].expanded; len(list) when none
	overflow []Neighbor
	ef       int
}

// listEntry is one result-list entry. expanded is set once it was
// popped, or from the start when PushResult entered it: it is not a
// candidate.
type listEntry struct {
	Neighbor
	expanded bool
}

// NewFrontier creates a frontier with result budget ef (>= 1). The
// arrays grow on demand — ef is often a request's k, which must not
// size an allocation.
func NewFrontier(ef int) *Frontier {
	f := &Frontier{}
	f.reset(ef)
	return f
}

// reset empties the frontier for a new search with budget ef, keeping
// the backing arrays.
func (f *Frontier) reset(ef int) {
	f.list, f.overflow = f.list[:0], f.overflow[:0]
	f.cursor, f.ef = 0, max(ef, 1)
}

// competitive reports whether n would enter the result list: the list
// is not full, or n precedes its last entry in the (distance, ID) order.
func (f *Frontier) competitive(n Neighbor) bool {
	return len(f.list) < f.ef || less(n, f.list[len(f.list)-1].Neighbor)
}

// insert places a competitive n at its sorted position (binary search
// plus one copy), evicting the last entry when the list is full; an
// evicted entry that was still a candidate moves to overflow. cand
// marks n unexpanded, so it is a candidate.
func (f *Frontier) insert(n Neighbor, cand bool) {
	lo, hi := 0, len(f.list)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if less(f.list[m].Neighbor, n) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if last := len(f.list) - 1; len(f.list) < f.ef {
		f.list = append(f.list, listEntry{})
	} else if !f.list[last].expanded {
		f.overflow = minPush(f.overflow, f.list[last].Neighbor)
	}
	copy(f.list[lo+1:], f.list[lo:])
	f.list[lo] = listEntry{Neighbor: n, expanded: !cand}
	if lo <= f.cursor {
		if cand {
			f.cursor = lo
		} else {
			f.cursor = min(f.cursor+1, len(f.list))
		}
	}
}

// Push offers a neighbor as a candidate and a result. It returns true
// if the neighbor entered the result list (i.e. it was competitive).
// Once the result list is full, admission follows the package's
// (distance, ID) total order: a candidate that ties the current worst
// on distance but has a smaller ID evicts it, so a Frontier fold
// retains exactly the ef smallest neighbors under that order.
func (f *Frontier) Push(n Neighbor) bool {
	if !f.competitive(n) {
		return false
	}
	f.insert(n, true)
	return true
}

// pushFiltered is Push under BeamSearch's skip predicate: a competitive
// neighbor that skip rejects becomes a candidate only — it routes the
// traversal but never reaches the result list. skip is evaluated only
// once the neighbor is known to be competitive.
func (f *Frontier) pushFiltered(n Neighbor, skip func(id uint32) bool) {
	if !f.competitive(n) {
		return
	}
	if skip(n.ID) {
		f.overflow = minPush(f.overflow, n)
	} else {
		f.insert(n, true)
	}
}

// PushResult offers a neighbor to the bounded result list only, never
// as a candidate — the fold for top-k merges that never expand
// candidates (e.g. combining per-shard result lists). Admission order
// matches Push.
func (f *Frontier) PushResult(n Neighbor) bool {
	if !f.competitive(n) {
		return false
	}
	f.insert(n, false)
	return true
}

// PopNearest removes and returns the closest unexpanded candidate: the
// cursor entry, which it marks expanded, or overflow's root when that
// is closer.
func (f *Frontier) PopNearest() (Neighbor, bool) {
	inList := f.cursor < len(f.list)
	if h := f.overflow; len(h) > 0 && (!inList || less(h[0], f.list[f.cursor].Neighbor)) {
		top, last := h[0], len(h)-1
		h[0] = h[last]
		f.overflow = h[:last]
		if last > 0 {
			minFix(f.overflow)
		}
		return top, true
	}
	if !inList {
		return Neighbor{}, false
	}
	top := f.list[f.cursor].Neighbor
	f.list[f.cursor].expanded = true
	f.cursor++
	for f.cursor < len(f.list) && f.list[f.cursor].expanded {
		f.cursor++
	}
	return top, true
}

// WorstDist returns the current result-list bound (+Inf semantics when
// not yet full are the caller's concern; ok reports fullness).
func (f *Frontier) WorstDist() (float32, bool) {
	if len(f.list) == 0 {
		return 0, false
	}
	return f.list[len(f.list)-1].Dist, len(f.list) >= f.ef
}

// Results returns a copy of the retained results, sorted ascending.
func (f *Frontier) Results() []Neighbor {
	if f.list == nil {
		return nil
	}
	return f.TopK(len(f.list))
}

// TopK returns the best min(k, retained) results sorted ascending —
// Results()[:k] — in a freshly allocated slice the caller owns.
func (f *Frontier) TopK(k int) []Neighbor {
	out := make([]Neighbor, min(max(k, 0), len(f.list)))
	for i := range out {
		out[i] = f.list[i].Neighbor
	}
	return out
}

// MergeTopK folds per-shard result lists through a bounded Frontier
// into the exact top-k under the package's (distance, ID) total order —
// the sharded engine's merge.
func MergeTopK(lists [][]Neighbor, k int) []Neighbor {
	total := 0
	for _, list := range lists {
		total += len(list)
	}
	f := NewFrontier(k)
	f.list = make([]listEntry, 0, min(f.ef, total)) // sized by the input, never by k alone
	for _, list := range lists {
		for _, n := range list {
			f.PushResult(n)
		}
	}
	return f.Results()
}

// Validate sanity-checks a result list over a dense corpus of n
// vectors: ValidateIn with IDs in [0, n).
func Validate(ns []Neighbor, n int) error {
	return ValidateIn(ns, func(id uint32) bool { return int(id) < n })
}

// ValidateIn sanity-checks a result list: ascending (distance, ID)
// order — the package's total order, including ID-ascending tie-breaks
// — finite distances, unique IDs, and every ID a member of the corpus
// (contains; nil skips the check). The generational engine's merged
// results carry arbitrary external IDs, so membership is a predicate
// rather than a range. Used by tests and the simulator's invariant
// checks. NaN distances are rejected explicitly: NaN compares false
// against everything, so a NaN entry would otherwise slip through the
// order checks while silently breaking the total order downstream
// (quantized rerank made this reachable in principle — a corrupted
// scale table could poison reranked distances).
func ValidateIn(ns []Neighbor, contains func(uint32) bool) error {
	seen := make(map[uint32]bool, len(ns))
	for i, x := range ns {
		if contains != nil && !contains(x.ID) {
			return fmt.Errorf("%w: result ID %d is not a corpus member", ErrInvalidResults, x.ID)
		}
		if x.Dist != x.Dist {
			return fmt.Errorf("%w: result %d (ID %d) has NaN distance", ErrInvalidResults, i, x.ID)
		}
		if seen[x.ID] {
			return fmt.Errorf("%w: duplicate result ID %d", ErrInvalidResults, x.ID)
		}
		seen[x.ID] = true
		if i > 0 {
			prev := ns[i-1]
			if x.Dist < prev.Dist {
				return fmt.Errorf("%w: results not sorted at index %d", ErrInvalidResults, i)
			}
			if x.Dist == prev.Dist && x.ID < prev.ID {
				return fmt.Errorf("%w: tie at index %d not in ascending ID order (%d after %d)", ErrInvalidResults, i, x.ID, prev.ID)
			}
		}
	}
	return nil
}
