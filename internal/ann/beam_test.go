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
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, n)
	for i := range data {
		data[i] = make(vec.Vector, dim)
		for d := range data[i] {
			data[i][d] = float32(rng.Intn(7)) - 3
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
	q := make(vec.Vector, dim)
	for d := range q {
		q[d] = float32(rng.Intn(7)) - 3
	}
	return q
}

// referenceBeam is the loop BeamSearch replaced, kept as the test
// oracle: a map visited set, one Dist call per neighbour, and the two
// lists as sorted slices.
func referenceBeam(st NodeStore, q vec.PreparedQuery, start Neighbor, ef int) (res, scored []Neighbor, tr trace.Query) {
	visited := map[uint32]bool{start.ID: true}
	results, cands := []Neighbor{start}, []Neighbor{start}
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
				results = append(results, n)
				sortOracle(results)
				results = results[:min(len(results), ef)]
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
					wantRes, wantScored, wantTr := referenceBeam(st, q, start, ef)
					var tr trace.Query
					var scored []Neighbor
					got := BeamSearch(s, st, &q, start, ef, &tr, &scored)
					if !slices.Equal(got, wantRes) {
						t.Fatalf("%v sq8=%v ef=%d: results differ\n got %v\nwant %v", m, quantized, ef, got, wantRes)
					}
					if !slices.Equal(scored, wantScored) {
						t.Fatalf("%v sq8=%v ef=%d: scored sequence differs", m, quantized, ef)
					}
					if !reflect.DeepEqual(tr, wantTr) {
						t.Fatalf("%v sq8=%v ef=%d: trace differs", m, quantized, ef)
					}
					if untraced := BeamSearch(s, st, &q, start, ef, nil, nil); !slices.Equal(untraced, wantRes) {
						t.Fatalf("%v sq8=%v ef=%d: untraced results differ", m, quantized, ef)
					}
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
		return BeamSearch(s, st, &q, Neighbor{ID: entry, Dist: st.Dist(q, entry)}, 12, nil, nil)
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
