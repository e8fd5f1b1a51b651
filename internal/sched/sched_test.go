package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ndsearch/internal/graph"
	"ndsearch/internal/luncsr"
	"ndsearch/internal/nand"
)

func testLayout(t *testing.T, n int) *luncsr.LUNCSR {
	t.Helper()
	geo := nand.Geometry{
		Channels: 2, ChipsPerChannel: 1, PlanesPerChip: 2, PlanesPerLUN: 2,
		BlocksPerPlane: 8, PagesPerBlock: 4, PageBytes: 1024,
	}
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(uint32(v), uint32(v+1))
		g.AddEdge(uint32(v+1), uint32(v))
	}
	// Add some shortcut edges so second-order sets are non-trivial.
	for v := 0; v+4 < n; v += 3 {
		g.AddEdge(uint32(v), uint32(v+4))
		g.AddEdge(uint32(v+4), uint32(v))
	}
	l, err := luncsr.Build(g.ToCSR(), geo, 256) // 4 vertices per page
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestAllocateDynamicSharesPages(t *testing.T) {
	l := testLayout(t, 64)
	// Two queries targeting vertices on the same page (0..3 share page 0).
	iters := []QueryIter{
		{Query: 0, Entry: 9, Neighbors: []uint32{0, 1}},
		{Query: 1, Entry: 9, Neighbors: []uint32{2, 3}},
	}
	da := Allocate(l, iters, true)
	if da.PageReads != 1 {
		t.Errorf("dynamic page reads = %d, want 1 (shared page)", da.PageReads)
	}
	if da.Tasks != 4 {
		t.Errorf("tasks = %d, want 4", da.Tasks)
	}
	noDa := Allocate(l, iters, false)
	if noDa.PageReads != 2 {
		t.Errorf("sequential page reads = %d, want 2 (one per query)", noDa.PageReads)
	}
	if noDa.Tasks != 4 {
		t.Errorf("sequential tasks = %d, want 4", noDa.Tasks)
	}
}

func TestAllocateWithinQuerySharing(t *testing.T) {
	l := testLayout(t, 64)
	// Even without dynamic allocation, one query's candidates on the
	// same page share a sense (the page buffer stays loaded within one
	// query's request).
	iters := []QueryIter{{Query: 0, Neighbors: []uint32{0, 1, 2, 3}}}
	a := Allocate(l, iters, false)
	if a.PageReads != 1 {
		t.Errorf("within-query page reads = %d, want 1", a.PageReads)
	}
}

func TestAllocateGroupsByLUN(t *testing.T) {
	l := testLayout(t, 64)
	// Vertices 0 (LUN 0) and 8 (LUN 1, per Fig. 11 walk) hit different LUNs.
	iters := []QueryIter{{Query: 0, Neighbors: []uint32{0, 8}}}
	a := Allocate(l, iters, true)
	if a.LUNsTouched != 2 {
		t.Errorf("LUNs touched = %d, want 2", a.LUNsTouched)
	}
	if len(a.ByLUN[0]) != 1 || len(a.ByLUN[1]) != 1 {
		t.Errorf("per-LUN jobs = %v", a.ByLUN)
	}
}

func TestAllocateSkipsOutOfRange(t *testing.T) {
	l := testLayout(t, 16)
	iters := []QueryIter{{Query: 0, Neighbors: []uint32{0, 9999}}}
	a := Allocate(l, iters, true)
	if a.Tasks != 1 {
		t.Errorf("tasks = %d, want 1 (out-of-range vertex skipped)", a.Tasks)
	}
}

func TestAllocateDeterministic(t *testing.T) {
	l := testLayout(t, 64)
	iters := []QueryIter{
		{Query: 0, Neighbors: []uint32{5, 12, 33}},
		{Query: 1, Neighbors: []uint32{5, 40, 41}},
	}
	a := Allocate(l, iters, true)
	b := Allocate(l, iters, true)
	if a.PageReads != b.PageReads || a.Tasks != b.Tasks || a.LUNsTouched != b.LUNsTouched {
		t.Error("allocation not deterministic")
	}
	for lun := range a.ByLUN {
		if len(a.ByLUN[lun]) != len(b.ByLUN[lun]) {
			t.Fatalf("per-LUN job count differs for LUN %d", lun)
		}
		for i := range a.ByLUN[lun] {
			if a.ByLUN[lun][i].Page != b.ByLUN[lun][i].Page {
				t.Fatalf("job order differs for LUN %d", lun)
			}
		}
	}
}

// TestAllocateJobOrder pins the per-LUN job order the fault injector and
// FTL consume: each LUN lists its jobs in the order their first task
// appears, query by query. The two queries' pages interleave across both
// LUNs (vertices 0–7 and 16–23 sit in LUN 0, 8–15 in LUN 1; four per page).
func TestAllocateJobOrder(t *testing.T) {
	l := testLayout(t, 64)
	iters := []QueryIter{
		{Query: 0, Neighbors: []uint32{8, 0, 16, 9, 4}},
		{Query: 1, Neighbors: []uint32{20, 1, 12, 8}},
	}
	job := func(page int64, plane int, tasks ...Task) PageJob {
		return PageJob{Page: page, GlobalPlane: plane, Tasks: tasks}
	}
	q0 := func(v uint32) Task { return Task{Query: 0, Vertex: v} }
	q1 := func(v uint32) Task { return Task{Query: 1, Vertex: v} }
	for _, tc := range []struct {
		dynamic bool
		want    map[int][]PageJob
	}{
		{false, map[int][]PageJob{
			0: {job(0, 0, q0(0)), job(1, 0, q0(16)), job(32, 1, q0(4)), job(33, 1, q1(20)), job(0, 0, q1(1))},
			1: {job(64, 2, q0(8), q0(9)), job(96, 3, q1(12)), job(64, 2, q1(8))},
		}},
		{true, map[int][]PageJob{
			0: {job(0, 0, q0(0), q1(1)), job(1, 0, q0(16)), job(32, 1, q0(4)), job(33, 1, q1(20))},
			1: {job(64, 2, q0(8), q0(9), q1(8)), job(96, 3, q1(12))},
		}},
	} {
		a := Allocate(l, iters, tc.dynamic)
		if !reflect.DeepEqual(a.ByLUN, tc.want) {
			t.Errorf("dynamic=%v: ByLUN =\n%+v\nwant\n%+v", tc.dynamic, a.ByLUN, tc.want)
		}
		pages := 0
		for _, jobs := range tc.want {
			pages += len(jobs)
		}
		if a.PageReads != pages || a.Tasks != 9 || a.LUNsTouched != 2 {
			t.Errorf("dynamic=%v: PageReads=%d Tasks=%d LUNsTouched=%d, want %d 9 2",
				tc.dynamic, a.PageReads, a.Tasks, a.LUNsTouched, pages)
		}
	}
}

func TestSpeculateSelectsSecondOrder(t *testing.T) {
	l := testLayout(t, 64)
	// Entry 5's neighbors per construction: line edges 4,6 plus maybe
	// shortcuts. Use its real adjacency as the first-order set.
	first := append([]uint32(nil), l.Neighbors(5)...)
	iters := []QueryIter{{Query: 0, Entry: 5, Neighbors: first}}
	spec := Speculate(l, iters, 8, nil)
	if len(spec) != 1 || spec[0].Query != 0 {
		t.Fatalf("speculation = %+v, want one item for query 0", spec)
	}
	s := spec[0].Neighbors
	if len(s) == 0 {
		t.Fatal("no speculation produced")
	}
	inFirst := map[uint32]bool{5: true}
	for _, v := range first {
		inFirst[v] = true
	}
	for _, w := range s {
		if inFirst[w] {
			t.Errorf("speculated vertex %d is already first-order", w)
		}
	}
	if len(s) > 8 {
		t.Errorf("budget exceeded: %d", len(s))
	}
}

func TestSpeculateBudgetZero(t *testing.T) {
	l := testLayout(t, 32)
	iters := []QueryIter{{Query: 0, Entry: 0, Neighbors: []uint32{1}}}
	if got := Speculate(l, iters, 0, nil); got != nil {
		t.Error("zero budget must return nil")
	}
}

func TestMatchSpeculation(t *testing.T) {
	spec := []QueryIter{{Query: 0, Neighbors: []uint32{10, 11, 12}}}
	next := []QueryIter{
		{Query: 0, Neighbors: []uint32{10, 13}},
		{Query: 1, Neighbors: []uint32{20}},
	}
	remaining, hits := MatchSpeculation(spec, next)
	if hits != 1 {
		t.Errorf("hits = %d, want 1 (vertex 10)", hits)
	}
	if len(remaining) != 2 {
		t.Fatalf("remaining iters = %d", len(remaining))
	}
	if len(remaining[0].Neighbors) != 1 || remaining[0].Neighbors[0] != 13 {
		t.Errorf("query 0 remaining = %v", remaining[0].Neighbors)
	}
	if len(remaining[1].Neighbors) != 1 || remaining[1].Neighbors[0] != 20 {
		t.Errorf("query 1 remaining = %v", remaining[1].Neighbors)
	}
}

func TestMatchSpeculationFullHit(t *testing.T) {
	spec := []QueryIter{{Query: 0, Neighbors: []uint32{10, 11}}}
	next := []QueryIter{{Query: 0, Neighbors: []uint32{10, 11}}}
	remaining, hits := MatchSpeculation(spec, next)
	if hits != 2 || len(remaining) != 0 {
		t.Errorf("full hit mishandled: hits=%d remaining=%d", hits, len(remaining))
	}
}

func TestMatchSpeculationEmpty(t *testing.T) {
	next := []QueryIter{{Query: 0, Neighbors: []uint32{1}}}
	remaining, hits := MatchSpeculation(nil, next)
	if hits != 0 || len(remaining) != 1 {
		t.Error("empty speculation must be a no-op")
	}
}

func TestSpeculateFollowsItersOrder(t *testing.T) {
	l := testLayout(t, 64)
	iters := []QueryIter{
		{Query: 1, Entry: 5, Neighbors: []uint32{4, 6}},
		{Query: 3, Entry: 20}, // no first-order set, so no candidates
		{Query: 4, Entry: 30, Neighbors: []uint32{29, 31}},
	}
	spec := Speculate(l, iters, 8, nil)
	if len(spec) != 2 || spec[0].Query != 1 || spec[1].Query != 4 {
		t.Errorf("speculation = %+v, want queries 1 and 4 in iters order", spec)
	}
}

// TestSpeculatePrefixProperty checks the contract the device model's
// budget halving rests on: the ranking is a total order, so a smaller
// budget's lists are prefixes of the full budget's, over the same
// queries in the same order.
func TestSpeculatePrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	geo := testLayout(t, 4).Geometry()
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(250)
		g := graph.New(n)
		for e := rng.Intn(6 * n); e > 0; e-- {
			g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		l, err := luncsr.Build(g.ToCSR(), geo, 256)
		if err != nil {
			t.Fatal(err)
		}
		var iters []QueryIter
		for q := 0; q < 12; q++ {
			if rng.Intn(4) == 0 {
				continue // a query that has finished its search
			}
			qi := QueryIter{Query: q, Entry: uint32(rng.Intn(n))}
			for k := rng.Intn(10); k > 0; k-- {
				qi.Neighbors = append(qi.Neighbors, uint32(rng.Intn(n+2))) // n, n+1: unplaced
			}
			iters = append(iters, qi)
		}
		mod := uint32(2 + rng.Intn(5))
		visited := func(q int, v uint32) bool { return (uint32(q)*7+v)%mod == 0 }
		if rng.Intn(3) == 0 {
			visited = nil
		}
		full := Speculate(l, iters, 8, visited)
		for b := 1; b <= 8; b++ {
			var want []QueryIter
			for _, qi := range full {
				want = append(want, QueryIter{Query: qi.Query, Neighbors: qi.Neighbors[:min(len(qi.Neighbors), b)]})
			}
			if got := Speculate(l, iters, b, visited); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, budget %d:\n got %+v\nwant %+v", trial, b, got, want)
			}
		}
	}
}

// speculateOracle is Speculate's specification as a map and a full
// sort: count each second-order candidate's connections into the
// first-order set, order by (count desc, vertex asc), cut to budget.
func speculateOracle(l *luncsr.LUNCSR, iters []QueryIter, budget int, visited func(int, uint32) bool) []QueryIter {
	var out []QueryIter
	for _, qi := range iters {
		first := map[uint32]bool{}
		for _, v := range qi.Neighbors {
			first[v] = true
		}
		counts := map[uint32]int{}
		for _, v := range qi.Neighbors {
			if int(v) >= l.Len() {
				continue
			}
			for _, w := range l.Neighbors(v) {
				if !first[w] && w != qi.Entry && (visited == nil || !visited(qi.Query, w)) {
					counts[w]++
				}
			}
		}
		if len(counts) == 0 {
			continue
		}
		var ws []uint32
		for w := range counts {
			ws = append(ws, w)
		}
		sort.Slice(ws, func(i, j int) bool {
			if counts[ws[i]] != counts[ws[j]] {
				return counts[ws[i]] > counts[ws[j]]
			}
			return ws[i] < ws[j]
		})
		out = append(out, QueryIter{Query: qi.Query, Neighbors: ws[:min(len(ws), budget)]})
	}
	return out
}

// Speculate's bounded selection keeps exactly the prefix a full sort by
// its rank key keeps, at budgets below, at and far above the candidate
// counts, over random graphs dense enough that connection counts tie.
func TestSpeculateMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	geo := testLayout(t, 4).Geometry()
	for trial := 0; trial < 200; trial++ {
		n := 8 + rng.Intn(120)
		g := graph.New(n)
		for e := rng.Intn(10 * n); e > 0; e-- {
			g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
		}
		l, err := luncsr.Build(g.ToCSR(), geo, 256)
		if err != nil {
			t.Fatal(err)
		}
		var iters []QueryIter
		for q := 0; q < 8; q++ {
			qi := QueryIter{Query: q, Entry: uint32(rng.Intn(n))}
			for k := rng.Intn(16); k > 0; k-- {
				qi.Neighbors = append(qi.Neighbors, uint32(rng.Intn(n+2)))
			}
			iters = append(iters, qi)
		}
		visited := func(q int, v uint32) bool { return (uint32(q)*5+v)%7 == 0 }
		if trial%2 == 0 {
			visited = nil
		}
		for _, b := range []int{1, 3, 8, 1000} {
			if got, want := Speculate(l, iters, b, visited), speculateOracle(l, iters, b, visited); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, budget %d:\n got %+v\nwant %+v", trial, b, got, want)
			}
		}
	}
}
