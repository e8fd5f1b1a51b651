package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/ecc"
	"ndsearch/internal/ftl"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/nand"
	"ndsearch/internal/reorder"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/ssdsim"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// scaledConfig returns the default configuration on the experiment-scale
// geometry, so page-locality effects appear at test corpus sizes.
func scaledConfig() Config {
	cfg := DefaultConfig()
	cfg.Params.Geometry = nand.ScaledGeometry()
	return cfg
}

// buildFixture constructs a small HNSW index over synthetic sift and a
// traced batch of queries.
func buildFixture(t *testing.T, n, batch int) (*hnsw.Index, dataset.Profile, *trace.Batch) {
	t.Helper()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: n, Queries: batch, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := hnsw.Build(d.Vectors, hnsw.Config{M: 8, EfConstruction: 60, EfSearch: 32, Metric: vec.L2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	tb := &trace.Batch{Dataset: prof.Name, Algo: "hnsw"}
	for qi, q := range d.Queries {
		_, tr := idx.SearchTraced(q, 10)
		tr.QueryID = qi
		tb.Queries = append(tb.Queries, tr)
	}
	return idx, prof, tb
}

func newSystem(t *testing.T, idx ann.Index, prof dataset.Profile, cfg Config) *System {
	t.Helper()
	sys, err := NewSystemFromIndex(idx, prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestSchedLabels(t *testing.T) {
	if got := BareSched().Label(); got != "Bare" {
		t.Errorf("bare label = %q", got)
	}
	if got := FullSched().Label(); got != "re+mp+da+sp" {
		t.Errorf("full label = %q", got)
	}
	partial := SchedConfig{Reorder: reorder.DegreeAscendingBFS, MultiPlane: true}
	if got := partial.Label(); got != "re+mp" {
		t.Errorf("partial label = %q", got)
	}
}

func TestSimulateBatchBasics(t *testing.T) {
	idx, prof, tb := buildFixture(t, 1500, 200)
	sys := newSystem(t, idx, prof, scaledConfig())
	res, err := sys.SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 200 {
		t.Errorf("BatchSize = %d", res.BatchSize)
	}
	if res.Latency <= 0 || res.QPS <= 0 {
		t.Errorf("degenerate timing: %v %v", res.Latency, res.QPS)
	}
	if res.PageReads <= 0 || res.TraceLength <= 0 {
		t.Errorf("no work recorded: %d pages, %d accesses", res.PageReads, res.TraceLength)
	}
	if res.PageAccessRatio <= 0 || res.PageAccessRatio > 1.5 {
		t.Errorf("page access ratio = %v", res.PageAccessRatio)
	}
	if res.LUNsTouchedFrac <= 0 || res.LUNsTouchedFrac > 1 {
		t.Errorf("LUN fraction = %v", res.LUNsTouchedFrac)
	}
	if res.Breakdown.Total() <= 0 {
		t.Error("empty breakdown")
	}
	if res.Iterations <= 0 {
		t.Error("no iterations recorded")
	}
}

func TestEmptyBatchRejected(t *testing.T) {
	idx, prof, _ := buildFixture(t, 300, 4)
	sys := newSystem(t, idx, prof, scaledConfig())
	if _, err := sys.SimulateBatch(&trace.Batch{}); err == nil {
		t.Error("empty batch must fail")
	}
}

func TestReorderingReducesPageAccessRatio(t *testing.T) {
	// Fig. 14: degree-ascending reordering cuts the page access ratio
	// versus no reordering.
	idx, prof, tb := buildFixture(t, 2000, 200)
	noRe := scaledConfig()
	noRe.Sched.Reorder = reorder.Identity
	noRe.Sched.Speculative = false
	ours := scaledConfig()
	ours.Sched.Speculative = false

	rNoRe, err := newSystem(t, idx, prof, noRe).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	rOurs, err := newSystem(t, idx, prof, ours).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rOurs.PageAccessRatio >= rNoRe.PageAccessRatio {
		t.Errorf("reordering did not cut page ratio: %.3f vs %.3f",
			rOurs.PageAccessRatio, rNoRe.PageAccessRatio)
	}
}

func TestDynamicAllocReducesPageReads(t *testing.T) {
	// Fig. 15: batch-wise dynamic allocating shares page senses across
	// queries.
	idx, prof, tb := buildFixture(t, 1800, 200)
	noDa := scaledConfig()
	noDa.Sched.DynamicAlloc = false
	noDa.Sched.Speculative = false
	da := scaledConfig()
	da.Sched.Speculative = false

	rNo, err := newSystem(t, idx, prof, noDa).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	rDa, err := newSystem(t, idx, prof, da).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rDa.PageReads >= rNo.PageReads {
		t.Errorf("da did not cut page reads: %d vs %d", rDa.PageReads, rNo.PageReads)
	}
	if rDa.Latency >= rNo.Latency {
		t.Errorf("da did not speed up: %v vs %v", rDa.Latency, rNo.Latency)
	}
}

func TestSpeculationTradeoff(t *testing.T) {
	// Fig. 15: speculation increases page accesses but reduces latency
	// when hits land.
	idx, prof, tb := buildFixture(t, 1800, 200)
	noSp := scaledConfig()
	noSp.Sched.Speculative = false
	sp := scaledConfig()

	rNo, err := newSystem(t, idx, prof, noSp).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	rSp, err := newSystem(t, idx, prof, sp).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rSp.SpecComputed == 0 {
		t.Fatal("speculation issued no work")
	}
	if rSp.SpecHits == 0 {
		t.Error("speculation hit nothing; prefetch selection is broken")
	}
	if rSp.PageReads <= rNo.PageReads {
		t.Errorf("speculation should increase total page reads: %d vs %d", rSp.PageReads, rNo.PageReads)
	}
	if rSp.Latency >= rNo.Latency {
		t.Errorf("speculation did not speed up: %v vs %v", rSp.Latency, rNo.Latency)
	}
}

func TestMultiPlaneHelps(t *testing.T) {
	idx, prof, tb := buildFixture(t, 1800, 200)
	noMp := scaledConfig()
	noMp.Sched.MultiPlane = false
	noMp.Sched.Speculative = false
	mp := scaledConfig()
	mp.Sched.Speculative = false

	rNo, err := newSystem(t, idx, prof, noMp).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	rMp, err := newSystem(t, idx, prof, mp).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	if rMp.Latency > rNo.Latency {
		t.Errorf("multi-plane slowed things down: %v vs %v", rMp.Latency, rNo.Latency)
	}
}

func TestAblationOrdering(t *testing.T) {
	// Fig. 16: each added technique must not hurt, and the full stack
	// must clearly beat bare.
	idx, prof, tb := buildFixture(t, 2000, 200)
	configs := []SchedConfig{
		BareSched(),
		{Reorder: reorder.DegreeAscendingBFS},
		{Reorder: reorder.DegreeAscendingBFS, MultiPlane: true},
		{Reorder: reorder.DegreeAscendingBFS, MultiPlane: true, DynamicAlloc: true},
		FullSched(),
	}
	var last float64
	var first, lastQPS float64
	for i, sc := range configs {
		cfg := scaledConfig()
		cfg.Sched = sc
		res, err := newSystem(t, idx, prof, cfg).SimulateBatch(tb)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.QPS
		}
		if i > 0 && res.QPS < last*0.95 {
			t.Errorf("step %d (%s) regressed QPS: %.0f -> %.0f", i, sc.Label(), last, res.QPS)
		}
		last = res.QPS
		lastQPS = res.QPS
	}
	if lastQPS < first*1.5 {
		t.Errorf("full stack only %.2fx over bare; paper reports ~4x", lastQPS/first)
	}
}

func TestFaultInjectionSlowsDown(t *testing.T) {
	// Fig. 18b: higher hard-decision failure probability slows the run.
	idx, prof, tb := buildFixture(t, 600, 24)
	mk := func(prob float64) *Result {
		cfg := scaledConfig()
		cfg.Sched.Speculative = false
		m := ecc.DefaultModel()
		m.HardFailureProb = prob
		inj, err := ecc.NewInjector(m, nil, 0, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Injector = inj
		res, err := newSystem(t, idx, prof, cfg).SimulateBatch(tb)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := mk(0.01)
	r30 := mk(0.30)
	if r30.SoftDecodes <= r1.SoftDecodes {
		t.Errorf("soft decodes did not grow: %d vs %d", r30.SoftDecodes, r1.SoftDecodes)
	}
	slow := float64(r30.Latency) / float64(r1.Latency)
	if slow < 1.01 {
		t.Errorf("30%% failures slowdown = %.3fx, want > 1", slow)
	}
	if slow > 2.5 {
		t.Errorf("slowdown %.2fx far above the paper's 1.66x ceiling", slow)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	idx, prof, tb := buildFixture(t, 1200, 128)
	a, err := newSystem(t, idx, prof, scaledConfig()).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSystem(t, idx, prof, scaledConfig()).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.PageReads != b.PageReads || a.SpecHits != b.SpecHits {
		t.Error("simulation is not deterministic")
	}
}

func TestBreakdownContainsExpectedCategories(t *testing.T) {
	idx, prof, tb := buildFixture(t, 1200, 128)
	res, err := newSystem(t, idx, prof, scaledConfig()).SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []string{CatNANDRead, CatMAC, CatDRAM, CatCores, CatAllocating, CatSSDIO, CatFPGASort} {
		if res.Breakdown[cat] <= 0 {
			t.Errorf("category %q missing from breakdown", cat)
		}
	}
	// Fig. 17: NAND read should be the biggest single contributor.
	fr := res.Breakdown.Fractions()
	if fr[0].Category != CatNANDRead && fr[0].Category != CatMAC {
		t.Errorf("dominant category = %q, expected NAND read or MAC", fr[0].Category)
	}
}

func TestNewSystemValidation(t *testing.T) {
	_, prof, _ := buildFixture(t, 300, 4)
	cfg := scaledConfig()
	cfg.Params.EmbeddedCores = 0
	idx, _, _ := buildFixture(t, 300, 4)
	if _, err := NewSystemFromIndex(idx, prof, cfg); err == nil {
		t.Error("invalid params must fail")
	}
}

// A batch past MaxHWBatch runs as hardware batches back to back: its
// Result is the manual split's, field by field — every counter and the
// breakdown summed, Iterations the maximum, LUNsTouchedFrac the mean —
// with speculation off and on, and with the fault injector and FTL
// consumed in the same order.
func TestSubBatchingMatchesManualSplit(t *testing.T) {
	idx, prof, tb := buildFixture(t, 1800, 600)
	for _, speculative := range []bool{false, true} {
		t.Run(fmt.Sprintf("speculative=%v", speculative), func(t *testing.T) {
			mk := func(maxHW int) *System {
				cfg := scaledConfig()
				cfg.Sched.Speculative = speculative
				cfg.Params.MaxHWBatch = maxHW
				m := ecc.DefaultModel()
				m.HardFailureProb = 0.2
				inj, err := ecc.NewInjector(m, nil, 0, 0, 5)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Injector = inj
				fl, err := ftl.New(nand.ScaledGeometry(), ftl.Config{
					SpareBlocksPerPlane:  4,
					ReadDisturbThreshold: 20,
					RefreshLatency:       100 * time.Microsecond,
				}, 3)
				if err != nil {
					t.Fatal(err)
				}
				cfg.FTL = fl
				return newSystem(t, idx, prof, cfg)
			}
			whole, err := mk(200).SimulateBatch(tb)
			if err != nil {
				t.Fatal(err)
			}
			if whole.SoftDecodes == 0 || whole.Refreshes == 0 || (speculative && whole.SpecComputed == 0) {
				t.Fatalf("fixture exercises too little: %d soft decodes, %d refreshes, %d speculated",
					whole.SoftDecodes, whole.Refreshes, whole.SpecComputed)
			}

			sysBig := mk(4096)
			want := &Result{BatchSize: 600, Breakdown: ssdsim.Breakdown{}}
			var lunFracs float64
			for start := 0; start < 600; start += 200 {
				sub := &trace.Batch{Dataset: tb.Dataset, Algo: tb.Algo, Queries: tb.Queries[start : start+200]}
				r, err := sysBig.SimulateBatch(sub)
				if err != nil {
					t.Fatal(err)
				}
				want.Latency += r.Latency
				want.PageReads += r.PageReads
				want.BasePageReads += r.BasePageReads
				want.TraceLength += r.TraceLength
				want.SpecComputed += r.SpecComputed
				want.SpecHits += r.SpecHits
				want.SoftDecodes += r.SoftDecodes
				want.Refreshes += r.Refreshes
				want.Iterations = max(want.Iterations, r.Iterations)
				for cat, d := range r.Breakdown {
					want.Breakdown.Add(cat, d)
				}
				lunFracs += r.LUNsTouchedFrac
			}
			want.QPS = float64(want.BatchSize) / want.Latency.Seconds()
			want.PageAccessRatio = float64(want.BasePageReads) / float64(want.TraceLength)
			want.LUNsTouchedFrac = lunFracs / 3
			if !reflect.DeepEqual(whole, want) {
				t.Errorf("sub-batched result\n%+v\n!= manual split\n%+v", whole, want)
			}

			// Sub-batching must cost throughput versus one large HW
			// batch: the fixed per-batch overheads repeat.
			one, err := mk(4096).SimulateBatch(tb)
			if err != nil {
				t.Fatal(err)
			}
			if one.QPS < whole.QPS {
				t.Errorf("single HW batch (%.0f QPS) should beat 3 sub-batches (%.0f QPS)", one.QPS, whole.QPS)
			}
		})
	}
}

// The device model reads a shard the way search does, through its
// NodeStore: an index saved and served paged from the file lays out and
// simulates exactly as the resident index it was saved from.
func TestPagedIndexSimulatesLikeResident(t *testing.T) {
	idx, prof, tb := buildFixture(t, 800, 64)
	path := filepath.Join(t.TempDir(), "hnsw.ndx")
	if _, _, err := snapshot.SaveFile(path, idx, prof.Elem); err != nil {
		t.Fatal(err)
	}
	resident := newSystem(t, idx, prof, scaledConfig())
	want, err := resident.SimulateBatch(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"mmap", "readat"} {
		paged, err := snapshot.OpenPagedFile(path, snapshot.PagedOptions{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		defer paged.Close()
		sys := newSystem(t, paged.Index(), prof, scaledConfig())
		if !reflect.DeepEqual(sys.Layout(), resident.Layout()) {
			t.Errorf("%s: paged layout differs from the resident one", backend)
		}
		got, err := sys.SimulateBatch(tb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: paged result\n%+v\n!= resident\n%+v", backend, got, want)
		}
	}
}
