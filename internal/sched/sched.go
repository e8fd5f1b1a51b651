// Package sched implements the dynamic-scheduling half of NDSEARCH's
// two-level scheduling (§VI-B): batch-wise dynamic allocating — grouping
// the candidates of all queries in a batch by target LUN and page so
// each page is sensed once — and speculative searching — prefetching
// selected second-order neighbors of each iteration's entry vertex so
// the next iteration's distances may already be computed.
package sched

import (
	"cmp"
	"slices"
	"sort"

	"ndsearch/internal/luncsr"
)

// Task is one distance computation: query qid against vertex v.
type Task struct {
	Query  int
	Vertex uint32
	// Speculative marks tasks issued by the prefetch path.
	Speculative bool
}

// QueryIter is one query's work in the current batch iteration.
type QueryIter struct {
	Query     int
	Entry     uint32
	Neighbors []uint32
}

// PageJob is one page sense plus the distance computations it serves.
type PageJob struct {
	// Page is the array-wide page identifier.
	Page int64
	// GlobalPlane is the plane sensing the page.
	GlobalPlane int
	// Block is the physical block (for FTL read-disturb accounting).
	Block int
	// Tasks are the distance computations reading this page.
	Tasks []Task
}

// Allocation is the outcome of the Allocating stage for one iteration:
// page jobs grouped per global LUN.
type Allocation struct {
	// ByLUN maps global LUN -> page jobs, ordered deterministically.
	ByLUN map[int][]PageJob
	// PageReads is the total page senses this iteration will issue.
	PageReads int
	// Tasks is the total distance-computation count.
	Tasks int
	// LUNsTouched is the number of distinct LUNs with work.
	LUNsTouched int
}

// Allocate runs batch-wise allocation over the iteration's work.
//
// With dynamic=true (the paper's "da"), tasks targeting the same page are
// merged into a single page sense regardless of which query issued them,
// maximising temporal locality in each LUN.
//
// With dynamic=false (the "w/o ds" baseline), queries are allocated
// sequentially and nothing is shared: every (query, page) pair costs its
// own page sense, modelling the page buffer being flushed between
// queries (§VII-B "Scheduling").
func Allocate(layout *luncsr.LUNCSR, iters []QueryIter, dynamic bool) Allocation {
	alloc := Allocation{ByLUN: map[int][]PageJob{}}
	if dynamic {
		type key struct {
			lun  int
			page int64
		}
		jobs := map[key]*PageJob{}
		var order []key
		for _, qi := range iters {
			for _, v := range qi.Neighbors {
				addr, err := layout.Address(v)
				if err != nil {
					continue // unplaced vertex: skip defensively
				}
				k := key{lun: layout.LUN(v), page: addr.GlobalPage(layout.Geometry())}
				j, ok := jobs[k]
				if !ok {
					j = &PageJob{
						Page:        k.page,
						GlobalPlane: layout.GlobalPlane(v),
						Block:       addr.Block,
					}
					jobs[k] = j
					order = append(order, k)
				}
				j.Tasks = append(j.Tasks, Task{Query: qi.Query, Vertex: v})
			}
		}
		for _, k := range order {
			alloc.ByLUN[k.lun] = append(alloc.ByLUN[k.lun], *jobs[k])
		}
	} else {
		// Sequential per-query allocation: no cross-query page sharing.
		for _, qi := range iters {
			perQuery := map[int64]*PageJob{}
			var order []int64
			for _, v := range qi.Neighbors {
				addr, err := layout.Address(v)
				if err != nil {
					continue
				}
				page := addr.GlobalPage(layout.Geometry())
				j, ok := perQuery[page]
				if !ok {
					j = &PageJob{
						Page:        page,
						GlobalPlane: layout.GlobalPlane(v),
						Block:       addr.Block,
					}
					perQuery[page] = j
					order = append(order, page)
				}
				j.Tasks = append(j.Tasks, Task{Query: qi.Query, Vertex: v})
			}
			for _, page := range order {
				j := perQuery[page]
				lun := j.GlobalPlane / layout.Geometry().PlanesPerLUN
				alloc.ByLUN[lun] = append(alloc.ByLUN[lun], *j)
			}
		}
	}
	for lun, jobs := range alloc.ByLUN {
		alloc.PageReads += len(jobs)
		for _, j := range jobs {
			alloc.Tasks += len(j.Tasks)
		}
		_ = lun
	}
	alloc.LUNsTouched = len(alloc.ByLUN)
	return alloc
}

// SpeculateConfig bounds the prefetch.
type SpeculateConfig struct {
	// Budget is the maximum second-order neighbors prefetched per query
	// per iteration.
	Budget int
	// Visited, when non-nil, reports whether the query has already
	// computed against v; such candidates are never prefetched again.
	Visited func(query int, v uint32) bool
}

// DefaultSpeculateConfig matches the Pref buffer sizing: roughly one
// neighbor-list worth of prefetch per query.
func DefaultSpeculateConfig() SpeculateConfig { return SpeculateConfig{Budget: 32} }

// Speculate computes, for each query in the iteration, the speculative
// second-order candidate set: neighbors of the entry's neighbors, ranked
// by how many connections they have back into the first-order set (the
// Pref Unit's selection rule, §VI-B2), truncated to the budget. First-
// order members themselves are excluded — they are already being
// computed this iteration.
func Speculate(layout *luncsr.LUNCSR, iters []QueryIter, cfg SpeculateConfig) map[int][]uint32 {
	if cfg.Budget <= 0 {
		return nil
	}
	// Dense per-call tables over the layout's vertices — first-order
	// membership and second-order connection counts — reset after each
	// query through the first-order list and the touched list, so a
	// query costs its own work, not a map per query.
	n := layout.Len()
	first := make([]bool, n)
	counts := make([]int32, n)
	var touched []uint32
	type ranked struct {
		v     uint32
		count int32
	}
	var cands []ranked
	out := make(map[int][]uint32, len(iters))
	for _, qi := range iters {
		for _, v := range qi.Neighbors {
			if int(v) < n {
				first[v] = true
			}
		}
		for _, v := range qi.Neighbors {
			if int(v) >= n {
				continue
			}
			for _, w := range layout.Neighbors(v) {
				if first[w] || w == qi.Entry {
					continue
				}
				if cfg.Visited != nil && cfg.Visited(qi.Query, w) {
					continue
				}
				if counts[w] == 0 {
					touched = append(touched, w)
				}
				counts[w]++
			}
		}
		for _, v := range qi.Neighbors {
			if int(v) < n {
				first[v] = false
			}
		}
		if len(touched) == 0 {
			continue
		}
		cands = cands[:0]
		for _, w := range touched {
			cands = append(cands, ranked{v: w, count: counts[w]})
			counts[w] = 0
		}
		touched = touched[:0]
		// Most connections first, ties by vertex ID: a total order, so
		// the kept prefix is deterministic.
		slices.SortFunc(cands, func(a, b ranked) int {
			if a.count != b.count {
				return cmp.Compare(b.count, a.count)
			}
			return cmp.Compare(a.v, b.v)
		})
		sel := make([]uint32, min(len(cands), cfg.Budget))
		for i := range sel {
			sel[i] = cands[i].v
		}
		out[qi.Query] = sel
	}
	return out
}

// SpecOutcome reports speculation effectiveness for one iteration
// transition.
type SpecOutcome struct {
	// Computed is the number of speculative distance computations issued.
	Computed int
	// Hits is how many of the next iteration's needed candidates were
	// covered by speculation (their cost is removed from the critical
	// path).
	Hits int
}

// MatchSpeculation intersects the speculative sets issued at iteration i
// with the actual work of iteration i+1 and returns, per query, the
// subset of next-iteration neighbors that still need computing, plus the
// aggregate outcome.
func MatchSpeculation(spec map[int][]uint32, next []QueryIter) ([]QueryIter, SpecOutcome) {
	var out SpecOutcome
	for _, s := range spec {
		out.Computed += len(s)
	}
	if len(spec) == 0 {
		return next, out
	}
	remaining := make([]QueryIter, 0, len(next))
	for _, qi := range next {
		s, ok := spec[qi.Query]
		if !ok {
			remaining = append(remaining, qi)
			continue
		}
		hit := make(map[uint32]bool, len(s))
		for _, v := range s {
			hit[v] = true
		}
		kept := qi
		kept.Neighbors = nil
		for _, v := range qi.Neighbors {
			if hit[v] {
				out.Hits++
			} else {
				kept.Neighbors = append(kept.Neighbors, v)
			}
		}
		if len(kept.Neighbors) > 0 {
			remaining = append(remaining, kept)
		}
	}
	return remaining, out
}

// SpecTasksToIters converts speculative sets into iteration work items
// (marked speculative) so they can be allocated and charged to the
// overlapped Searching stage.
func SpecTasksToIters(spec map[int][]uint32) []QueryIter {
	queries := make([]int, 0, len(spec))
	for q := range spec {
		queries = append(queries, q)
	}
	sort.Ints(queries)
	out := make([]QueryIter, 0, len(queries))
	for _, q := range queries {
		out = append(out, QueryIter{Query: q, Neighbors: spec[q]})
	}
	return out
}
