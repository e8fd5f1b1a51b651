package ann

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ndsearch/internal/vec"
)

func randomData(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, n)
	for i := range data {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		data[i] = v
	}
	return data
}

func TestBruteForceExactness(t *testing.T) {
	data := randomData(100, 8, 1)
	q := data[0]
	got := BruteForce(vec.L2, data, q, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].ID != 0 || got[0].Dist != 0 {
		t.Errorf("self should be nearest: %v", got[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Error("results not ascending")
		}
	}
	if err := Validate(got, len(data)); err != nil {
		t.Error(err)
	}
}

func TestBruteForceKTruncation(t *testing.T) {
	data := randomData(4, 3, 2)
	if got := BruteForce(vec.L2, data, data[0], 10); len(got) != 4 {
		t.Errorf("k>n should clamp: len=%d", len(got))
	}
}

func TestRecall(t *testing.T) {
	exact := []Neighbor{{1, 0.1}, {2, 0.2}, {3, 0.3}}
	if got := Recall(exact, exact, 3); got != 1 {
		t.Errorf("self recall = %v", got)
	}
	approx := []Neighbor{{1, 0.1}, {9, 0.15}, {3, 0.3}}
	if got := Recall(approx, exact, 3); got < 0.66 || got > 0.67 {
		t.Errorf("recall = %v, want 2/3", got)
	}
	if got := Recall(nil, exact, 3); got != 0 {
		t.Errorf("empty approx recall = %v", got)
	}
	if got := Recall(approx, nil, 3); got != 0 {
		t.Errorf("empty truth recall = %v", got)
	}
	if got := Recall(approx, exact, 0); got != 0 {
		t.Errorf("k=0 recall = %v", got)
	}
	// k beyond exact length clamps.
	if got := Recall(exact, exact, 10); got != 1 {
		t.Errorf("k clamp recall = %v", got)
	}
}

func TestFrontierBasicSearchBehavior(t *testing.T) {
	f := NewFrontier(3)
	for _, n := range []Neighbor{{0, 5}, {1, 1}, {2, 3}, {3, 4}, {4, 2}} {
		f.Push(n)
	}
	rs := f.Results()
	if len(rs) != 3 {
		t.Fatalf("results len = %d", len(rs))
	}
	if rs[0].ID != 1 || rs[1].ID != 4 || rs[2].ID != 2 {
		t.Errorf("results = %v", rs)
	}
	worst, full := f.WorstDist()
	if !full || worst != 3 {
		t.Errorf("WorstDist = %v %v", worst, full)
	}
}

func TestFrontierRejectsWorse(t *testing.T) {
	f := NewFrontier(2)
	f.Push(Neighbor{0, 1})
	f.Push(Neighbor{1, 2})
	if f.Push(Neighbor{2, 3}) {
		t.Error("worse-than-worst candidate should be rejected when full")
	}
	if !f.Push(Neighbor{3, 0.5}) {
		t.Error("better candidate should be accepted")
	}
	rs := f.Results()
	if rs[0].ID != 3 || rs[1].ID != 0 {
		t.Errorf("results = %v", rs)
	}
}

// Once full, a frontier must resolve distance ties at the boundary by
// the (distance, ID) total order: smaller ID wins.
func TestFrontierTieBreaksByID(t *testing.T) {
	f := NewFrontier(2)
	f.Push(Neighbor{1, 1})
	f.Push(Neighbor{7, 3})
	if f.Push(Neighbor{9, 3}) {
		t.Error("equal distance, larger ID must be rejected")
	}
	if !f.Push(Neighbor{5, 3}) {
		t.Error("equal distance, smaller ID must evict the worst result")
	}
	if f.Push(Neighbor{5, 3}) {
		t.Error("candidate equal to the worst result must be rejected")
	}
	rs := f.Results()
	if len(rs) != 2 || rs[0] != (Neighbor{1, 1}) || rs[1] != (Neighbor{5, 3}) {
		t.Errorf("results = %v, want [{1 1} {5 3}]", rs)
	}
}

// Property: folding every corpus distance through a Frontier — via Push
// and via the result-list-only PushResult — yields exactly the
// brute-force top-k, on corpora built from duplicated vectors so
// distance ties are dense at every boundary.
func TestFrontierTiesMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few distinct positions, many copies: most distances collide.
		distinct := randomData(3+rng.Intn(4), 4, seed+100)
		data := make([]vec.Vector, 60)
		for i := range data {
			data[i] = distinct[rng.Intn(len(distinct))]
		}
		q := distinct[rng.Intn(len(distinct))]
		// Feed the frontier the same kernel-path distances BruteForce
		// computes, so the comparison is about fold semantics alone.
		pq := vec.PrepareQuery(vec.L2, q)
		for _, k := range []int{1, 2, 5, 17, len(data)} {
			full := NewFrontier(k)
			resOnly := NewFrontier(k)
			for i, v := range data {
				n := Neighbor{ID: uint32(i), Dist: pq.DistanceTo(v)}
				full.Push(n)
				resOnly.PushResult(n)
			}
			want := BruteForce(vec.L2, data, q, k)
			for name, got := range map[string][]Neighbor{
				"Push": full.Results(), "PushResult": resOnly.Results(),
			} {
				if len(got) != len(want) {
					t.Fatalf("seed %d k=%d %s: %d results, want %d",
						seed, k, name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d k=%d %s result %d: frontier %v != brute force %v",
							seed, k, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestFrontierPopNearest(t *testing.T) {
	f := NewFrontier(2)
	f.Push(Neighbor{0, 2})
	f.Push(Neighbor{1, 1})
	n, ok := f.PopNearest()
	if !ok || n.ID != 1 {
		t.Errorf("PopNearest = %v %v", n, ok)
	}
	n, ok = f.PopNearest()
	if !ok || n.ID != 0 {
		t.Errorf("second pop = %v %v", n, ok)
	}
	if _, ok := f.PopNearest(); ok {
		t.Error("pop from empty should report !ok")
	}
}

func TestFrontierEfFloor(t *testing.T) {
	f := NewFrontier(0) // clamps to 1
	f.Push(Neighbor{0, 1})
	f.Push(Neighbor{1, 0.5})
	if len(f.Results()) != 1 {
		t.Errorf("ef floor broken: %v", f.Results())
	}
}

func TestTopK(t *testing.T) {
	f := NewFrontier(5)
	for i := 0; i < 5; i++ {
		f.Push(Neighbor{uint32(i), float32(5 - i)})
	}
	top := f.TopK(2)
	if len(top) != 2 || top[0].ID != 4 || top[1].ID != 3 {
		t.Errorf("TopK = %v", top)
	}
	if got := f.TopK(-1); len(got) != 0 {
		t.Errorf("TopK(-1) = %v", got)
	}
	if got := f.TopK(99); len(got) != 5 {
		t.Errorf("TopK(99) len = %d", len(got))
	}
}

// TopK(k) is Results()[:k] element for element — the same selection
// under the (distance, ID) order, ties on distance included — at every
// k around the budget, on frontiers pushed past ef (evictions) and
// under it, and its slice is the caller's: writing it leaves the next
// TopK unchanged.
func TestFrontierTopKMatchesResults(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ef = 16
	for trial := 0; trial < 200; trial++ {
		f := NewFrontier(ef)
		pushes := 1 + rng.Intn(3*ef)
		for _, id := range rng.Perm(4 * ef)[:pushes] {
			// Few distinct distances, so most admissions tie.
			f.Push(Neighbor{ID: uint32(id), Dist: float32(rng.Intn(6))})
		}
		all := f.Results()
		for _, k := range []int{-1, 0, 1, ef - 1, ef, ef + 5} {
			want := all[:min(max(k, 0), len(all))]
			got := f.TopK(k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d results, want %d", trial, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d k=%d [%d]: %v, want %v", trial, k, i, got[i], want[i])
				}
			}
			for i := range got {
				got[i].ID = ^uint32(0)
			}
			if again := f.TopK(k); len(again) > 0 && again[0] != want[0] {
				t.Fatalf("trial %d k=%d: TopK shares memory with the frontier", trial, k)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Neighbor{{0, 1}, {1, 2}}
	if err := Validate(good, 5); err != nil {
		t.Error(err)
	}
	if err := Validate([]Neighbor{{9, 1}}, 5); err == nil {
		t.Error("out-of-range ID must fail")
	}
	if err := Validate([]Neighbor{{0, 1}, {0, 2}}, 5); err == nil {
		t.Error("duplicate ID must fail")
	}
	if err := Validate([]Neighbor{{0, 2}, {1, 1}}, 5); err == nil {
		t.Error("descending distances must fail")
	}
	// The full (distance, ID) total order: equal-distance runs must be
	// in ascending ID order, not merely non-descending by distance.
	if err := Validate([]Neighbor{{0, 1}, {2, 2}, {1, 2}}, 5); err == nil {
		t.Error("tie in descending ID order must fail")
	}
	if err := Validate([]Neighbor{{0, 1}, {1, 2}, {2, 2}, {3, 3}}, 5); err != nil {
		t.Errorf("tie in ascending ID order must pass: %v", err)
	}
}

// Property: the frontier retains exactly the ef smallest distances pushed.
func TestFrontierProperty(t *testing.T) {
	f := func(raw []float32, efRaw uint8) bool {
		ef := int(efRaw%8) + 1
		fr := NewFrontier(ef)
		all := make([]Neighbor, len(raw))
		for i, d := range raw {
			if d != d { // NaN
				d = 0
			}
			all[i] = Neighbor{ID: uint32(i), Dist: d}
			fr.Push(all[i])
		}
		want := append([]Neighbor(nil), all...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > ef {
			want = want[:ef]
		}
		got := fr.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceMetrics(t *testing.T) {
	data := []vec.Vector{{1, 0}, {0, 1}, {0.9, 0.1}}
	q := vec.Vector{1, 0}
	l2 := BruteForce(vec.L2, data, q, 1)
	if l2[0].ID != 0 {
		t.Errorf("L2 nearest = %v", l2[0])
	}
	ip := BruteForce(vec.InnerProduct, data, q, 3)
	if ip[0].ID != 0 || ip[2].ID != 1 {
		t.Errorf("IP order = %v", ip)
	}
	ang := BruteForce(vec.Angular, data, q, 1)
	if ang[0].ID != 0 {
		t.Errorf("Angular nearest = %v", ang[0])
	}
}
