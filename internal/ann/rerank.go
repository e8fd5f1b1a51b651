package ann

import "ndsearch/internal/vec"

// RerankExactStore re-scores the head of a candidate list with exact
// full-precision distances through a NodeStore's exact path and
// returns the top k — the second half of the quantized two-tier
// search: traversal ranks candidates in SQ8 code space (ordering keys,
// not metric units), then the head is re-evaluated on the float32 rows
// so returned distances are exact and the (distance, ID) total order
// holds on what callers see, regardless of which store served the
// traversal.
//
// Unlike ivfpq's rerank (PR 3), the code-space tail is NOT re-merged
// behind the reranked head: ADC distances share the metric's scale with
// exact distances, so a value-level merge is meaningful there, but
// code-space distances are in different units and comparing them
// against exact ones would interleave incomparable keys. The tail is
// dropped instead — callers control how much survives via width.
//
// width is the number of leading candidates to re-score: clamped to at
// least k (reranking fewer than k would fabricate a shorter result
// list) and at most len(cands); width <= 0 means rerank the entire
// candidate list, the recall-optimal default. cands must be sorted by
// code-space distance (best first) and is not mutated.
func RerankExactStore(store NodeStore, query vec.Vector, cands []Neighbor, width, k int) []Neighbor {
	w := width
	if w <= 0 || w > len(cands) {
		w = len(cands)
	}
	if w < k {
		w = min(k, len(cands))
	}
	head := make([]Neighbor, w)
	copy(head, cands[:w])
	q := store.PrepareExact(query)
	for i := range head {
		head[i].Dist = store.DistExact(q, head[i].ID)
	}
	SortNeighbors(head)
	if k > len(head) {
		k = len(head)
	}
	if k < 0 {
		k = 0
	}
	return head[:k]
}
