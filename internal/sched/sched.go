// Package sched implements the dynamic-scheduling half of NDSEARCH's
// two-level scheduling (§VI-B): batch-wise dynamic allocating — grouping
// the candidates of all queries in a batch by target LUN and page so
// each page is sensed once — and speculative searching — prefetching
// selected second-order neighbors of each iteration's entry vertex so
// the next iteration's distances may already be computed. Speculate
// ranks a round's candidates once; a smaller budget is a prefix of its
// lists, and MatchSpeculation subtracts the prefix issued from the next
// round's work.
package sched

import (
	"cmp"
	"slices"

	"ndsearch/internal/luncsr"
)

// Task is one distance computation: query qid against vertex v.
type Task struct {
	Query  int
	Vertex uint32
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

// Allocate runs batch-wise allocation over the iteration's work: one
// page job per (owner, page), each LUN's jobs in the order their first
// task appears in iters.
//
// With dynamic=true (the paper's "da") every job is shared: tasks
// targeting the same page are merged into a single page sense
// regardless of which query issued them, maximising temporal locality
// in each LUN.
//
// With dynamic=false (the "w/o ds" baseline) the owner is the query:
// one query's candidates on a page still share a sense, but every
// (query, page) pair costs its own, modelling the page buffer being
// flushed between queries (§VII-B "Scheduling").
func Allocate(layout *luncsr.LUNCSR, iters []QueryIter, dynamic bool) Allocation {
	type key struct {
		owner int // the query, or -1 when every query shares the page
		page  int64
	}
	jobs := map[key]int{}
	var list []PageJob
	var luns []int
	alloc := Allocation{ByLUN: map[int][]PageJob{}}
	for _, qi := range iters {
		owner := -1
		if !dynamic {
			owner = qi.Query
		}
		for _, v := range qi.Neighbors {
			addr, err := layout.Address(v)
			if err != nil {
				continue // unplaced vertex: skip defensively
			}
			k := key{owner: owner, page: addr.GlobalPage(layout.Geometry())}
			i, ok := jobs[k]
			if !ok {
				i = len(list)
				jobs[k] = i
				list = append(list, PageJob{Page: k.page, GlobalPlane: layout.GlobalPlane(v), Block: addr.Block})
				luns = append(luns, layout.LUN(v))
			}
			list[i].Tasks = append(list[i].Tasks, Task{Query: qi.Query, Vertex: v})
			alloc.Tasks++
		}
	}
	for i, j := range list {
		alloc.ByLUN[luns[i]] = append(alloc.ByLUN[luns[i]], j)
	}
	alloc.PageReads = len(list)
	alloc.LUNsTouched = len(alloc.ByLUN)
	return alloc
}

// Speculate computes, for each query in the iteration, the speculative
// second-order candidate list: neighbors of the entry's neighbors,
// ranked by how many connections they have back into the first-order
// set (the Pref Unit's selection rule, §VI-B2), most connections first
// and ties by vertex ID, cut to budget. The ranking is a total order,
// so the list for a smaller budget is a prefix of this one. First-order
// members and the entry are excluded — they are already being computed
// this iteration — and so is any w with visited(query, w), when visited
// is non-nil. The result holds one work item per query in iters order,
// leaving out queries with no candidate; it is nil when budget <= 0.
func Speculate(layout *luncsr.LUNCSR, iters []QueryIter, budget int, visited func(query int, v uint32) bool) []QueryIter {
	if budget <= 0 {
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
	var out []QueryIter
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
				if visited != nil && visited(qi.Query, w) {
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
		slices.SortFunc(cands, func(a, b ranked) int {
			if a.count != b.count {
				return cmp.Compare(b.count, a.count)
			}
			return cmp.Compare(a.v, b.v)
		})
		sel := make([]uint32, min(len(cands), budget))
		for i := range sel {
			sel[i] = cands[i].v
		}
		out = append(out, QueryIter{Query: qi.Query, Neighbors: sel})
	}
	return out
}

// MatchSpeculation subtracts the speculative lists issued at iteration i
// from the work of iteration i+1. Both lists must be in ascending query
// order, as Speculate returns them for such iters. It returns, per
// query, the next-iteration neighbors that still need computing
// (leaving out queries with none) and how many were covered by
// speculation — their cost is removed from the critical path.
func MatchSpeculation(spec, next []QueryIter) (remaining []QueryIter, hits int) {
	if len(spec) == 0 {
		return next, 0
	}
	remaining = make([]QueryIter, 0, len(next))
	for _, qi := range next {
		for len(spec) > 0 && spec[0].Query < qi.Query {
			spec = spec[1:]
		}
		if len(spec) == 0 || spec[0].Query != qi.Query {
			remaining = append(remaining, qi)
			continue
		}
		kept := qi
		kept.Neighbors = nil
		for _, v := range qi.Neighbors {
			if slices.Contains(spec[0].Neighbors, v) {
				hits++
			} else {
				kept.Neighbors = append(kept.Neighbors, v)
			}
		}
		if len(kept.Neighbors) > 0 {
			remaining = append(remaining, kept)
		}
	}
	return remaining, hits
}
