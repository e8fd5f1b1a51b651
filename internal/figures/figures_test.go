package figures

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"ndsearch/internal/reorder"
)

// sharedSuite is built once; figure functions are read-only over it.
var sharedSuite = NewSuite(TestScale())

func mustFloat(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return f
}

func TestSuiteWorkloadCachingAndRecall(t *testing.T) {
	w1, err := sharedSuite.Workload("sift-1b", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := sharedSuite.Workload("sift-1b", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Error("workload not cached")
	}
	if w1.Recall10 < 0.85 {
		t.Errorf("recall@10 = %.3f, index quality too low for experiments", w1.Recall10)
	}
	if len(w1.Batch.Queries) != sharedSuite.Scale.Batch {
		t.Errorf("batch size = %d", len(w1.Batch.Queries))
	}
	if _, err := sharedSuite.Workload("sift-1b", "nope"); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if _, err := sharedSuite.Workload("nope", "hnsw"); err == nil {
		t.Error("unknown dataset must fail")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.AddRow("x", 1.5)
	tab.AddRow(42, "y")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "x", "1.500", "42", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1CPUIODominates(t *testing.T) {
	tab, err := sharedSuite.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 2 algos x 3 datasets x 2 batch sizes
		t.Fatalf("Fig1 rows = %d, want 12", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		io := mustFloat(t, row[3])
		if io < 50 || io > 90 {
			t.Errorf("SSD I/O share %.1f%% outside the paper's billion-scale band (61-75%%): %v", io, row)
		}
	}
}

func TestFig2aUtilisationSaturates(t *testing.T) {
	tab, err := sharedSuite.Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 2 {
		t.Fatal("Fig2a needs multiple batch sizes")
	}
	first := mustFloat(t, tab.Rows[0][3])
	last := mustFloat(t, tab.Rows[len(tab.Rows)-1][3])
	if last < 50 || last > 100 {
		t.Errorf("utilisation at max batch = %.1f%%, want high (paper ~83%%)", last)
	}
	if last <= first {
		t.Errorf("utilisation must rise toward saturation: %.1f%% -> %.1f%%", first, last)
	}
}

func TestFig2bSpeedupOverCPU(t *testing.T) {
	tab, err := sharedSuite.Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig2b rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		sp := mustFloat(t, row[3])
		if sp <= 1 {
			t.Errorf("NDSEARCH must beat CPU on %s, got %.2fx", row[0], sp)
		}
	}
}

func TestFig4AccessPatterns(t *testing.T) {
	a, b, err := sharedSuite.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 || len(b.Rows) != 10 {
		t.Fatalf("Fig4 rows: %d / %d", len(a.Rows), len(b.Rows))
	}
	for _, row := range a.Rows {
		useful := mustFloat(t, row[2])
		if useful > 60 {
			t.Errorf("useful-bytes ratio %.1f%% too high: construction order should waste page data", useful)
		}
	}
	// LUN spread should be substantial in every batch (paper: >82% at
	// batch 2048; smaller test batches still cover a large fraction).
	for _, row := range b.Rows {
		frac := mustFloat(t, row[2])
		if frac < 30 {
			t.Errorf("only %.0f%% of LUNs touched; allocation spread broken", frac)
		}
	}
}

func TestFig10OursWins(t *testing.T) {
	tab, err := sharedSuite.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		orig := mustFloat(t, row[1])
		ours := mustFloat(t, row[3])
		if ours > orig {
			t.Errorf("%s: ours beta %.1f worse than original %.1f", row[0], ours, orig)
		}
	}
}

func TestFig14ReorderingHelps(t *testing.T) {
	tab, err := sharedSuite.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	// Group rows in triples (w/o re, ran bfs, ours) and check ours
	// improves on w/o re for both metrics.
	if len(tab.Rows)%3 != 0 {
		t.Fatalf("row count %d not a multiple of 3", len(tab.Rows))
	}
	for i := 0; i < len(tab.Rows); i += 3 {
		base := tab.Rows[i]
		ours := tab.Rows[i+2]
		if base[2] != string(reorder.Identity) || ours[2] != string(reorder.DegreeAscendingBFS) {
			t.Fatalf("unexpected method order at row %d: %v", i, tab.Rows[i])
		}
		if mustFloat(t, ours[3]) > mustFloat(t, base[3]) {
			t.Errorf("%s/%s: ours page ratio %.3f worse than baseline %.3f",
				base[0], base[1], mustFloat(t, ours[3]), mustFloat(t, base[3]))
		}
		// DiskANN enters every query at the medoid; reordering co-locates
		// that neighborhood on one plane and serialises the first round's
		// senses across the batch, so up to ~8% slowdown is possible at
		// simulation scale (DESIGN.md §2 describes the layout). Anything
		// below 0.9 is a genuine regression.
		if mustFloat(t, ours[4]) < 0.90 {
			t.Errorf("%s/%s: ours slowed down (%.3fx)", base[0], base[1], mustFloat(t, ours[4]))
		}
	}
}

func TestFig15DynamicScheduling(t *testing.T) {
	tab, err := sharedSuite.Fig15()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(tab.Rows); i += 3 {
		noDs := tab.Rows[i]
		da := tab.Rows[i+1]
		daSp := tab.Rows[i+2]
		if mustFloat(t, da[3]) > 1.0 {
			t.Errorf("%s/%s: da did not reduce page accesses", noDs[0], noDs[1])
		}
		if mustFloat(t, da[4]) < 1.0 {
			t.Errorf("%s/%s: da slowed down", noDs[0], noDs[1])
		}
		if mustFloat(t, daSp[4]) < mustFloat(t, da[4])*0.99 {
			t.Errorf("%s/%s: sp regressed speedup (%.3f vs %.3f)",
				noDs[0], noDs[1], mustFloat(t, daSp[4]), mustFloat(t, da[4]))
		}
	}
}

func TestFig13PlatformOrdering(t *testing.T) {
	tab, err := sharedSuite.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	// 2 algos x 5 datasets x 6 platforms.
	if len(tab.Rows) != 60 {
		t.Fatalf("Fig13 rows = %d, want 60", len(tab.Rows))
	}
	// For billion-scale rows NDSEARCH must be the fastest platform.
	byKey := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		if byKey[key] == nil {
			byKey[key] = map[string]float64{}
		}
		byKey[key][row[2]] = mustFloat(t, row[3])
	}
	for key, plats := range byKey {
		nd := plats["NDSearch"]
		for name, q := range plats {
			if name == "NDSearch" {
				continue
			}
			if strings.Contains(key, "-1b") && q >= nd {
				t.Errorf("%s: %s (%.0f) beats NDSEARCH (%.0f) on billion-scale", key, name, q, nd)
			}
		}
		// DS-cp must beat DS-c everywhere (§VII-B).
		if plats["DS-cp"] <= plats["DS-c"] {
			t.Errorf("%s: DS-cp must beat DS-c", key)
		}
	}
}

func TestFig16AblationMonotone(t *testing.T) {
	tab, err := sharedSuite.Fig16()
	if err != nil {
		t.Fatal(err)
	}
	// Per algo: rows CPU, GPU, DS-cp, Bare, re, re+mp, re+mp+da, full.
	if len(tab.Rows) != 16 {
		t.Fatalf("Fig16 rows = %d, want 16", len(tab.Rows))
	}
	for a := 0; a < 2; a++ {
		rows := tab.Rows[a*8 : (a+1)*8]
		var prev float64
		for i := 3; i < 8; i++ {
			q := mustFloat(t, rows[i][2])
			if i > 3 && q < prev*0.95 {
				t.Errorf("%s: ablation step %s regressed (%.0f -> %.0f)", rows[i][0], rows[i][1], prev, q)
			}
			prev = q
		}
		bare := mustFloat(t, rows[3][2])
		full := mustFloat(t, rows[7][2])
		if full < bare*1.3 {
			t.Errorf("%s: full stack only %.2fx over bare", rows[0][0], full/bare)
		}
	}
}

func TestFig17BreakdownSumsTo100(t *testing.T) {
	tab, err := sharedSuite.Fig17()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		var sum float64
		for _, cell := range row[2:] {
			sum += mustFloat(t, cell)
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s/%s breakdown sums to %.1f%%", row[0], row[1], sum)
		}
	}
}

func TestFig18ECCSlowdownBand(t *testing.T) {
	_, b, err := sharedSuite.Fig18()
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in groups of 4 (1, 5, 10, 30 %); the 30% row's normalised
	// latency must exceed 1 and stay within a plausible band.
	for i := 3; i < len(b.Rows); i += 4 {
		slow := mustFloat(t, b.Rows[i][3])
		if slow < 1.0 {
			t.Errorf("%s: 30%% failures sped things up (%.3f)", b.Rows[i][0], slow)
		}
		if slow > 2.5 {
			t.Errorf("%s: slowdown %.2fx far beyond the paper's 1.66x", b.Rows[i][0], slow)
		}
	}
}

func TestFig19BatchShape(t *testing.T) {
	tab, err := sharedSuite.Fig19()
	if err != nil {
		t.Fatal(err)
	}
	// For each (algo, dataset) the speedup at the largest batch must be
	// at least as high as at the smallest (LUN parallelism needs load).
	group := map[string][]float64{}
	var order []string
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		if _, ok := group[key]; !ok {
			order = append(order, key)
		}
		group[key] = append(group[key], mustFloat(t, row[5]))
	}
	for _, key := range order {
		sp := group[key]
		if len(sp) < 3 {
			t.Fatalf("%s: too few sweep points", key)
		}
		peak := 0.0
		for _, v := range sp {
			if v > peak {
				peak = v
			}
		}
		if peak <= sp[0] {
			t.Errorf("%s: speedup should grow from the smallest batch (%.2f -> peak %.2f)", key, sp[0], peak)
		}
	}
}

func TestFig20EnergyEfficiency(t *testing.T) {
	tab, err := sharedSuite.Fig20()
	if err != nil {
		t.Fatal(err)
	}
	// NDSEARCH must have the best QPS/W on billion-scale datasets.
	byKey := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1]
		if byKey[key] == nil {
			byKey[key] = map[string]float64{}
		}
		byKey[key][row[2]] = mustFloat(t, row[5])
	}
	for key, plats := range byKey {
		nd := plats["NDSearch"]
		for name, eff := range plats {
			if name != "NDSearch" && eff >= nd {
				t.Errorf("%s: %s more efficient than NDSEARCH (%.2f vs %.2f QPS/W)", key, name, eff, nd)
			}
		}
	}
}

func TestFig21NDPStaysOnTop(t *testing.T) {
	tab, err := sharedSuite.Fig21()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("Fig21 rows = %d, want 10", len(tab.Rows))
	}
	for a := 0; a < 2; a++ {
		rows := tab.Rows[a*5 : (a+1)*5]
		cpu := mustFloat(t, rows[0][2])
		cput := mustFloat(t, rows[1][2])
		nd := mustFloat(t, rows[4][2])
		if cput <= cpu {
			t.Errorf("%s: CPU-T must beat CPU", rows[0][0])
		}
		for _, r := range rows[:4] {
			if mustFloat(t, r[2]) >= nd {
				t.Errorf("%s: %s beats NDSEARCH", r[0], r[1])
			}
		}
	}
}

func TestTable1(t *testing.T) {
	tab, err := sharedSuite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 8 components + overall
		t.Fatalf("Table1 rows = %d", len(tab.Rows))
	}
	overall := tab.Rows[8]
	if mustFloat(t, overall[3]) < 18.8 || mustFloat(t, overall[3]) > 18.9 {
		t.Errorf("overall power = %s, want 18.82", overall[3])
	}
}

func TestDiscussionIVFPQ(t *testing.T) {
	tab, err := sharedSuite.Discussion()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Discussion rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if r := mustFloat(t, row[1]); r < 0.7 {
			t.Errorf("%s: IVF-PQ recall %.3f too low", row[0], r)
		}
		if lift := mustFloat(t, row[6]); lift < 50 || lift > 60 {
			t.Errorf("%s: bandwidth lift %.1f, want ~53.2", row[0], lift)
		}
	}
}
