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

// ---- candidate list / result list heaps -------------------------------
//
// Both heaps are plain []Neighbor binary heaps with hand-written sifts:
// no container/heap, so no Neighbor is boxed into an interface on push
// or pop and a reused Frontier allocates nothing. Each order has its
// own pair: minPush/minFix keep the candidate min-heap (nearest at the
// root), maxPush/maxFix the result max-heap (farthest at the root).

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

func maxPush(h []Neighbor, n Neighbor) []Neighbor {
	h = append(h, n)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[parent], n) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = n
	return h
}

// maxFix restores the max-heap after its root was overwritten.
func maxFix(h []Neighbor) {
	n, i := h[0], 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && less(h[c], h[c+1]) {
			c++
		}
		if !less(n, h[c]) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = n
}

// Frontier is the best-first candidate pool used by greedy graph search:
// a min-heap of unexpanded candidates plus a bounded max-heap of the best
// ef results seen so far (the paper's "candidate list" and "result list",
// §II-A).
type Frontier struct {
	candidates []Neighbor
	results    []Neighbor
	ef         int
}

// NewFrontier creates a frontier with result budget ef (>= 1). The
// heaps grow on demand — ef is often a request's k, which must not
// size an allocation.
func NewFrontier(ef int) *Frontier {
	f := &Frontier{}
	f.reset(ef)
	return f
}

// reset empties the frontier for a new search with budget ef, keeping
// the heaps' backing arrays.
func (f *Frontier) reset(ef int) {
	f.candidates, f.results, f.ef = f.candidates[:0], f.results[:0], max(ef, 1)
}

// Push offers a neighbor to both heaps. It returns true if the neighbor
// entered the result list (i.e. it was competitive). Once the result
// list is full, admission follows the package's (distance, ID) total
// order: a candidate that ties the current worst on distance but has a
// smaller ID evicts it, so a Frontier fold retains exactly the ef
// smallest neighbors under that order.
func (f *Frontier) Push(n Neighbor) bool {
	if f.PushResult(n) {
		f.candidates = minPush(f.candidates, n)
		return true
	}
	return false
}

// pushFiltered is Push under BeamSearch's skip predicate: a competitive
// neighbor that skip rejects enters the candidate heap only — it routes
// the traversal but never reaches the result list. skip is evaluated
// only once the neighbor is known to be competitive.
func (f *Frontier) pushFiltered(n Neighbor, skip func(id uint32) bool) {
	if len(f.results) >= f.ef && !less(n, f.results[0]) {
		return
	}
	if !skip(n.ID) {
		f.PushResult(n)
	}
	f.candidates = minPush(f.candidates, n)
}

// PushResult offers a neighbor to the bounded result list only, leaving
// the candidate heap untouched — the fold for top-k merges that never
// expand candidates (e.g. combining per-shard result lists). Admission
// order matches Push.
func (f *Frontier) PushResult(n Neighbor) bool {
	if len(f.results) < f.ef {
		f.results = maxPush(f.results, n)
		return true
	}
	if less(n, f.results[0]) {
		f.results[0] = n
		maxFix(f.results)
		return true
	}
	return false
}

// PopNearest removes and returns the closest unexpanded candidate.
func (f *Frontier) PopNearest() (Neighbor, bool) {
	last := len(f.candidates) - 1
	if last < 0 {
		return Neighbor{}, false
	}
	top := f.candidates[0]
	f.candidates[0] = f.candidates[last]
	f.candidates = f.candidates[:last]
	if last > 0 {
		minFix(f.candidates)
	}
	return top, true
}

// WorstDist returns the current result-list bound (+Inf semantics when
// not yet full are the caller's concern; ok reports fullness).
func (f *Frontier) WorstDist() (float32, bool) {
	if len(f.results) == 0 {
		return 0, false
	}
	return f.results[0].Dist, len(f.results) >= f.ef
}

// Results returns the retained results sorted ascending.
func (f *Frontier) Results() []Neighbor {
	out := slices.Clone(f.results)
	SortNeighbors(out)
	return out
}

// TopK returns the best min(k, retained) results sorted ascending —
// Results()[:k] — in a freshly allocated slice the caller owns. It
// selects instead of sorting the whole list: each retained result is
// insertion-placed into a sorted run of at most k, which it enters
// only if it beats the run's last, so a search returning k of ef
// results never orders the other ef-k.
func (f *Frontier) TopK(k int) []Neighbor {
	k = min(max(k, 0), len(f.results))
	out := make([]Neighbor, 0, k)
	for _, n := range f.results {
		if len(out) == k {
			if k == 0 || !less(n, out[k-1]) {
				continue
			}
			out = out[:k-1]
		}
		i := len(out)
		out = append(out, n)
		for ; i > 0 && less(n, out[i-1]); i-- {
			out[i] = out[i-1]
		}
		out[i] = n
	}
	return out
}

// MergeTopK folds per-shard result lists through a bounded Frontier
// into the exact top-k under the package's (distance, ID) total order —
// the sharded engine's merge.
func MergeTopK(lists [][]Neighbor, k int) []Neighbor {
	f := NewFrontier(k)
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
