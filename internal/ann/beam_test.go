package ann

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ndsearch/internal/graph"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// sortOracle orders by the package's (distance, ID) total order with the
// reflective sort the typed heaps replaced.
func sortOracle(ns []Neighbor) {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].Dist != ns[j].Dist {
			return ns[i].Dist < ns[j].Dist
		}
		return ns[i].ID < ns[j].ID
	})
}

// Property: under random interleaved push/pop streams drawn from a
// handful of distances (so exact ties are the norm), the typed-heap
// Frontier admits, retains and pops exactly what a sort-based model of
// the two lists does.
func TestFrontierMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		ef := 1 + rng.Intn(9)
		f := NewFrontier(ef)
		var results, cands []Neighbor // model: both kept sorted
		for op, nextID := 0, uint32(0); op < 120; op++ {
			if rng.Intn(3) == 0 {
				got, ok := f.PopNearest()
				if ok != (len(cands) > 0) {
					t.Fatalf("trial %d op %d: PopNearest ok=%v with %d model candidates", trial, op, ok, len(cands))
				}
				if ok {
					if got != cands[0] {
						t.Fatalf("trial %d op %d: popped %v, want %v", trial, op, got, cands[0])
					}
					cands = cands[1:]
				}
				continue
			}
			// IDs arrive out of order so ties break both ways.
			n := Neighbor{ID: nextID ^ uint32(rng.Intn(4)), Dist: float32(rng.Intn(5))}
			nextID += 4
			admit := len(results) < ef || less(n, results[len(results)-1])
			if got := f.Push(n); got != admit {
				t.Fatalf("trial %d op %d: Push(%v) = %v, want %v", trial, op, n, got, admit)
			}
			if admit {
				results = append(results, n)
				sortOracle(results)
				results = results[:min(len(results), ef)]
				cands = append(cands, n)
				sortOracle(cands)
			}
			if got := f.Results(); !slices.Equal(got, results) {
				t.Fatalf("trial %d op %d: Results = %v, want %v", trial, op, got, results)
			}
			if worst, full := f.WorstDist(); worst != results[len(results)-1].Dist || full != (len(results) == ef) {
				t.Fatalf("trial %d op %d: WorstDist = %v,%v over %v", trial, op, worst, full, results)
			}
		}
	}
}

// randomStore is a KernelStore over n random vectors on a coarse grid
// (distance ties) and a random out-degree-deg graph.
func randomStore(t testing.TB, m vec.Metric, n, dim, deg int, quantized bool, seed int64) *KernelStore {
	t.Helper()
	return randomStoreOf(t, m, n, dim, deg, quantized, seed, gridValue)
}

// gridValue draws one of −3…3: a coarse grid, so distances tie.
func gridValue(rng *rand.Rand) float32 { return float32(rng.Intn(7)) - 3 }

// byteValue draws one of 0, 85, 170, 255: integers in [0, 255], so a
// float L2 store and query of them take vec's order-free FMA body, on a
// grid coarse enough that distances tie.
func byteValue(rng *rand.Rand) float32 { return float32(85 * rng.Intn(4)) }

// randomStoreOf is randomStore with components drawn by draw.
func randomStoreOf(t testing.TB, m vec.Metric, n, dim, deg int, quantized bool, seed int64, draw func(*rand.Rand) float32) *KernelStore {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, n)
	for i := range data {
		data[i] = make(vec.Vector, dim)
		for d := range data[i] {
			data[i][d] = draw(rng)
		}
	}
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(uint32(v), uint32((v+1)%n)) // connected
		for e := 1; e < deg; e++ {
			g.AddEdge(uint32(v), uint32(rng.Intn(n)))
		}
	}
	st, err := NewKernelStore(m, vec.NewMatrix(data), g, quantized)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func randomQuery(rng *rand.Rand, dim int) vec.Vector {
	return randomQueryOf(rng, dim, gridValue)
}

func randomQueryOf(rng *rand.Rand, dim int, draw func(*rand.Rand) float32) vec.Vector {
	q := make(vec.Vector, dim)
	for d := range q {
		q[d] = draw(rng)
	}
	return q
}

// referenceBeam is the loop BeamSearch replaced, kept as the test
// oracle: a map visited set, one Dist call per neighbour, and the two
// lists as sorted slices. A competitive vertex that skip (nil: none)
// rejects joins the candidates but not the results.
func referenceBeam(st NodeStore, q vec.PreparedQuery, start Neighbor, ef int, skip func(uint32) bool) (res, scored []Neighbor, tr trace.Query) {
	visited := map[uint32]bool{start.ID: true}
	results, cands := []Neighbor{start}, []Neighbor{start}
	if skip != nil && skip(start.ID) {
		results = nil
	}
	scored = []Neighbor{start}
	for len(cands) > 0 {
		c := cands[0]
		cands = cands[1:]
		if len(results) >= ef && c.Dist > results[len(results)-1].Dist {
			break
		}
		var computed []uint32
		for _, v := range st.Neighbors(c.ID, nil) {
			if visited[v] {
				continue
			}
			visited[v] = true
			computed = append(computed, v)
			n := Neighbor{ID: v, Dist: st.Dist(q, v)}
			scored = append(scored, n)
			if len(results) < ef || less(n, results[len(results)-1]) {
				if skip == nil || !skip(v) {
					results = append(results, n)
					sortOracle(results)
					results = results[:min(len(results), ef)]
				}
				cands = append(cands, n)
				sortOracle(cands)
			}
		}
		if len(computed) > 0 {
			tr.Iters = append(tr.Iters, trace.Iter{Entry: c.ID, Neighbors: computed})
		}
	}
	return results, scored, tr
}

// BeamSearch is step for step the per-neighbour reference loop: same
// results (IDs and float bits), same trace, same scored sequence, for
// every metric on float and SQ8 traversal, including ef beyond Len().
func TestBeamSearchMatchesReferenceLoop(t *testing.T) {
	const n, dim = 240, 6
	s := NewScratch()
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		for _, quantized := range []bool{false, true} {
			st := randomStore(t, m, n, dim, 5, quantized, 3)
			rng := rand.New(rand.NewSource(9))
			for trial := 0; trial < 20; trial++ {
				q := st.Prepare(randomQuery(rng, dim))
				entry := uint32(rng.Intn(n))
				start := Neighbor{ID: entry, Dist: st.Dist(q, entry)}
				for _, ef := range []int{1, 7, 40, n, n + 100} {
					wantRes, wantScored, wantTr := referenceBeam(st, q, start, ef, nil)
					var tr trace.Query
					var scored []Neighbor
					got := BeamSearch(s, st, &q, start, ef, &tr, &scored, nil)
					if !slices.Equal(got, wantRes) {
						t.Fatalf("%v sq8=%v ef=%d: results differ\n got %v\nwant %v", m, quantized, ef, got, wantRes)
					}
					if !slices.Equal(scored, wantScored) {
						t.Fatalf("%v sq8=%v ef=%d: scored sequence differs", m, quantized, ef)
					}
					if !reflect.DeepEqual(tr, wantTr) {
						t.Fatalf("%v sq8=%v ef=%d: trace differs", m, quantized, ef)
					}
					if untraced := BeamSearch(s, st, &q, start, ef, nil, nil, nil); !slices.Equal(untraced, wantRes) {
						t.Fatalf("%v sq8=%v ef=%d: untraced results differ", m, quantized, ef)
					}
				}
			}
		}
	}
}

// On byte-valued rows and queries, where KernelStore.Dists scores
// through vec's order-free FMA body and referenceBeam's per-neighbour
// Dist through l2sq4, BeamSearch is still the reference loop step for
// step — results, scored sequence and trace — without and with a skip
// predicate, at dims below, on and past the 16-element FMA step.
func TestBeamSearchByteValuedMatchesReferenceLoop(t *testing.T) {
	const n = 240
	s := NewScratch()
	for _, dim := range []int{6, 16, 37, 128} {
		st := randomStoreOf(t, vec.L2, n, dim, 5, false, 3, byteValue)
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 20; trial++ {
			q := st.Prepare(randomQueryOf(rng, dim, byteValue))
			entry := uint32(rng.Intn(n))
			start := Neighbor{ID: entry, Dist: st.Dist(q, entry)}
			skip, _ := randomSkip(rng, n, []float64{0, 0.05, 0.3, 0.7}[trial%4])
			if trial%4 == 0 {
				skip = nil
			}
			for _, ef := range []int{1, 7, 40, n, n + 100} {
				wantRes, wantScored, wantTr := referenceBeam(st, q, start, ef, skip)
				var tr trace.Query
				var scored []Neighbor
				got := BeamSearch(s, st, &q, start, ef, &tr, &scored, skip)
				if !slices.Equal(got, wantRes) {
					t.Fatalf("d%d trial %d ef=%d: results differ\n got %v\nwant %v", dim, trial, ef, got, wantRes)
				}
				if !slices.Equal(scored, wantScored) {
					t.Fatalf("d%d trial %d ef=%d: scored sequence differs", dim, trial, ef)
				}
				if !reflect.DeepEqual(tr, wantTr) {
					t.Fatalf("d%d trial %d ef=%d: trace differs", dim, trial, ef)
				}
			}
		}
	}
}

// randomSkip returns a predicate rejecting each of n vertices with
// probability p, and the rejected set.
func randomSkip(rng *rand.Rand, n int, p float64) (func(uint32) bool, map[uint32]bool) {
	set := map[uint32]bool{}
	for v := 0; v < n; v++ {
		if rng.Float64() < p {
			set[uint32(v)] = true
		}
	}
	return func(id uint32) bool { return set[id] }, set
}

// The filter seam is the reference loop's skip rule step for step: same
// results, trace and scored sequence for every metric on float and SQ8
// traversal over random skip sets (the start vertex included), and no
// skipped vertex is ever returned. A predicate that rejects nothing is
// the unfiltered search exactly.
func TestBeamSearchFilterMatchesReferenceLoop(t *testing.T) {
	const n, dim = 240, 6
	s := NewScratch()
	none := func(uint32) bool { return false }
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		for _, quantized := range []bool{false, true} {
			st := randomStore(t, m, n, dim, 5, quantized, 3)
			rng := rand.New(rand.NewSource(21))
			for trial := 0; trial < 20; trial++ {
				q := st.Prepare(randomQuery(rng, dim))
				entry := uint32(rng.Intn(n))
				start := Neighbor{ID: entry, Dist: st.Dist(q, entry)}
				skip, set := randomSkip(rng, n, []float64{0.05, 0.3, 0.7, 0.95}[trial%4])
				calls := 0
				counted := func(id uint32) bool { calls++; return skip(id) }
				for _, ef := range []int{1, 7, 40, n, n + 100} {
					calls = 0
					wantRes, wantScored, wantTr := referenceBeam(st, q, start, ef, counted)
					wantCalls := calls
					calls = 0
					var tr trace.Query
					var scored []Neighbor
					got := BeamSearch(s, st, &q, start, ef, &tr, &scored, counted)
					if !slices.Equal(got, wantRes) {
						t.Fatalf("%v sq8=%v ef=%d: filtered results differ\n got %v\nwant %v", m, quantized, ef, got, wantRes)
					}
					if calls != wantCalls {
						t.Fatalf("%v sq8=%v ef=%d: skip asked %d times, want %d (competitive vertices only)", m, quantized, ef, calls, wantCalls)
					}
					if !slices.Equal(scored, wantScored) {
						t.Fatalf("%v sq8=%v ef=%d: filtered scored sequence differs", m, quantized, ef)
					}
					if !reflect.DeepEqual(tr, wantTr) {
						t.Fatalf("%v sq8=%v ef=%d: filtered trace differs", m, quantized, ef)
					}
					for _, r := range got {
						if set[r.ID] {
							t.Fatalf("%v sq8=%v ef=%d: skipped vertex %d returned", m, quantized, ef, r.ID)
						}
					}
					var plainTr, noneTr trace.Query
					var plainScored, noneScored []Neighbor
					plain := BeamSearch(s, st, &q, start, ef, &plainTr, &plainScored, nil)
					if kept := BeamSearch(s, st, &q, start, ef, &noneTr, &noneScored, none); !slices.Equal(kept, plain) ||
						!slices.Equal(noneScored, plainScored) || !reflect.DeepEqual(noneTr, plainTr) {
						t.Fatalf("%v sq8=%v ef=%d: a predicate rejecting nothing changed the search", m, quantized, ef)
					}
				}
			}
		}
	}
}

// At exhaustive width (ef >= Len()) the filtered traversal reaches the
// whole connected store, so its results are brute force over the
// unskipped vectors — IDs and distance bits.
func TestBeamSearchFilterExhaustiveIsBruteForce(t *testing.T) {
	const n, dim = 200, 5
	s := NewScratch()
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		st := randomStore(t, m, n, dim, 4, false, 7)
		data := make([]vec.Vector, n)
		for i := range data {
			data[i] = st.Matrix().Row(i)
		}
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < 10; trial++ {
			query := randomQuery(rng, dim)
			q := st.Prepare(query)
			entry := uint32(rng.Intn(n))
			skip, set := randomSkip(rng, n, 0.4)
			var want []Neighbor
			for _, nb := range BruteForce(m, data, query, n) {
				if !set[nb.ID] {
					want = append(want, nb)
				}
			}
			for _, ef := range []int{n, n + 50} {
				got := BeamSearch(s, st, &q, Neighbor{ID: entry, Dist: st.Dist(q, entry)}, ef, nil, nil, skip)
				if !slices.Equal(got, want) {
					t.Fatalf("%v trial %d ef=%d: filtered exhaustive search\n got %v\nwant %v", m, trial, ef, got, want)
				}
			}
		}
	}
}

// Skipped vertices route: on a path 0-1-2-3 whose only way from the
// start (0) to the nearest live vertex (3) runs through two skipped
// ones, even a one-slot beam reaches 3 — and returns neither 1 nor 2.
func TestBeamSearchFilterRoutesThroughSkipped(t *testing.T) {
	const n = 4
	data := make([]vec.Vector, n)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		data[v] = vec.Vector{float32(v), 0}
		if v > 0 {
			g.AddEdge(uint32(v-1), uint32(v))
			g.AddEdge(uint32(v), uint32(v-1))
		}
	}
	st, err := NewKernelStore(vec.L2, vec.NewMatrix(data), g, false)
	if err != nil {
		t.Fatal(err)
	}
	q := st.Prepare(vec.Vector{3, 0})
	start := Neighbor{ID: 0, Dist: st.Dist(q, 0)}
	skip := func(id uint32) bool { return id == 1 || id == 2 }
	for _, ef := range []int{1, 2, n} {
		var scored []Neighbor
		got := BeamSearch(NewScratch(), st, &q, start, ef, nil, &scored, skip)
		if len(got) == 0 || got[0].ID != 3 || got[0].Dist != 0 {
			t.Fatalf("ef=%d: results %v, want vertex 3 first at distance 0", ef, got)
		}
		for _, r := range got {
			if skip(r.ID) {
				t.Fatalf("ef=%d: skipped vertex %d returned in %v", ef, r.ID, got)
			}
		}
		if len(scored) != n {
			t.Fatalf("ef=%d: scored %v, want the whole path", ef, scored)
		}
	}
	// Skipping only the target leaves its live neighbour on top.
	if got := BeamSearch(NewScratch(), st, &q, start, 1, nil, nil, func(id uint32) bool { return id == 3 }); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("skipping only the target: %v, want [2]", got)
	}
}

// Exact.SearchFilter is "scan everything, then drop the skipped rows":
// the same IDs and distance bits as filtering a full-width Search.
func TestExactSearchFilterDropsSkipped(t *testing.T) {
	const n, dim = 150, 6
	data := randomData(n, dim, 12)
	rng := rand.New(rand.NewSource(14))
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		ex := NewExact(m, data)
		for trial := 0; trial < 10; trial++ {
			query := randomQuery(rng, dim)
			skip, _ := randomSkip(rng, n, 0.5)
			all := slices.DeleteFunc(ex.Search(query, n), func(nb Neighbor) bool { return skip(nb.ID) })
			for _, k := range []int{1, 10, n} {
				want := all[:min(k, len(all))]
				if got := ex.SearchFilter(query, k, skip); !slices.Equal(got, want) {
					t.Fatalf("%v k=%d: SearchFilter %v, want %v", m, k, got, want)
				}
			}
		}
	}
}

// One Scratch interleaved over two stores of different Len(), and
// driven across an epoch wrap-around, answers exactly what a fresh
// Scratch per search does.
func TestScratchReuseAcrossStoresAndEpochWrap(t *testing.T) {
	const dim = 5
	big := randomStore(t, vec.L2, 300, dim, 4, false, 1)
	small := randomStore(t, vec.L2, 90, dim, 4, false, 2)
	shared := NewScratch()
	rng := rand.New(rand.NewSource(4))
	search := func(s *Scratch, st *KernelStore, query vec.Vector, entry uint32) []Neighbor {
		q := st.Prepare(query)
		return BeamSearch(s, st, &q, Neighbor{ID: entry, Dist: st.Dist(q, entry)}, 12, nil, nil, nil)
	}
	check := func(label string) {
		t.Helper()
		for i := 0; i < 40; i++ {
			st := big
			if i%2 == 1 {
				st = small
			}
			query, entry := randomQuery(rng, dim), uint32(rng.Intn(st.Len()))
			if got, want := search(shared, st, query, entry), search(NewScratch(), st, query, entry); !slices.Equal(got, want) {
				t.Fatalf("%s search %d (n=%d): shared scratch %v, fresh scratch %v", label, i, st.Len(), got, want)
			}
		}
	}
	check("interleaved")
	if len(shared.visited) != big.Len() {
		t.Errorf("visited table has %d stamps, want the largest store's %d", len(shared.visited), big.Len())
	}
	// Ten searches short of the wrap: the table still holds stamps from
	// the searches above, which a wrapped epoch would collide with if
	// begin did not clear it.
	shared.epoch = math.MaxUint32 - 10
	check("across wrap")
	if shared.epoch >= 40 {
		t.Errorf("epoch = %d after the wrap, want a small restart", shared.epoch)
	}
}

// KernelStore.Dists is bit for bit one Dist per id, for every metric on
// float and SQ8 traversal.
func TestKernelStoreDistsMatchDist(t *testing.T) {
	const n, dim = 150, 9
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		for _, quantized := range []bool{false, true} {
			st := randomStore(t, m, n, dim, 2, quantized, 6)
			rng := rand.New(rand.NewSource(8))
			q := st.Prepare(randomQuery(rng, dim))
			ids := make([]uint32, 64)
			for i := range ids {
				ids[i] = uint32(rng.Intn(n))
			}
			out := make([]float32, len(ids))
			st.Dists(&q, ids, out)
			for i, v := range ids {
				if want := st.Dist(q, v); math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Fatalf("%v sq8=%v: Dists[%d] (node %d) = %v, Dist = %v", m, quantized, i, v, out[i], want)
				}
			}
		}
	}
}

// materializingStore copies adjacency into buf the way a paged store
// does, over a KernelStore's graph.
type materializingStore struct{ *KernelStore }

func (m materializingStore) Neighbors(v uint32, buf []uint32) []uint32 {
	return append(buf[:0], m.KernelStore.Neighbors(v, nil)...)
}

// The buffer-ownership rule: a Scratch that has just read a resident
// store's adjacency view must not hand that view to the next,
// materializing, store as its append target.
func TestScratchNeverAdoptsStoreSlices(t *testing.T) {
	st := randomStore(t, vec.L2, 60, 4, 6, false, 5)
	before := st.BaseGraph().Clone()
	s := NewScratch()
	for round := 0; round < 3; round++ {
		for v := uint32(0); v < 60; v++ {
			view := s.Neighbors(st, v)
			copied := s.Neighbors(materializingStore{st}, (v+7)%60)
			if !slices.Equal(copied, st.BaseGraph().Neighbors((v+7)%60)) {
				t.Fatalf("materialized adjacency of %d = %v", (v+7)%60, copied)
			}
			if len(view) > 0 && len(copied) > 0 && &view[0] == &copied[0] {
				t.Fatalf("node %d: materializing store wrote into the resident adjacency", v)
			}
		}
	}
	if !reflect.DeepEqual(st.BaseGraph(), before) {
		t.Fatal("resident graph changed")
	}
}
