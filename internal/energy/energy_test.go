package energy

import (
	"math"
	"testing"
)

func TestTableITotalsMatchPaper(t *testing.T) {
	w, a := SearSSDLogic()
	if math.Abs(w-18.82) > 0.01 {
		t.Errorf("SearSSD logic power = %.2f W, paper reports 18.82 W", w)
	}
	if math.Abs(a-43.09) > 0.01 {
		t.Errorf("SearSSD logic area = %.2f mm2, paper reports 43.09 mm2", a)
	}
}

func TestNDSearchTotalPower(t *testing.T) {
	if got := NDSearchWatts(); math.Abs(got-26.32) > 0.01 {
		t.Errorf("NDSEARCH power = %.2f W, paper reports 26.32 W", got)
	}
	if !WithinBudget() {
		t.Error("design must fit the 55 W PCIe budget")
	}
}

func TestTableIRows(t *testing.T) {
	rows := TableI()
	if len(rows) != 8 {
		t.Fatalf("Table I has %d rows, want 8", len(rows))
	}
	if rows[0].Name != "MAC group" || rows[0].Num != 512 {
		t.Errorf("first row = %+v", rows[0])
	}
	for _, r := range rows {
		if r.PowerWatts <= 0 || r.AreaMM2 <= 0 {
			t.Errorf("row %q has non-positive power/area", r.Name)
		}
	}
}

func TestStorageDensityMatchesPaper(t *testing.T) {
	// §VII-B: 512 GB at 6 Gb/mm2 plus ~43 mm2 of logic -> 5.64 Gb/mm2.
	got := StorageDensity(512<<30, 6, 43.09)
	if got < 5.5 || got > 5.8 {
		t.Errorf("storage density = %.2f Gb/mm2, paper reports 5.64", got)
	}
	// Degradation must be ~6%.
	if deg := 1 - got/6; deg < 0.03 || deg > 0.09 {
		t.Errorf("density degradation = %.1f%%, paper reports ~6%%", deg*100)
	}
	if StorageDensity(0, 6, 43) != 0 || StorageDensity(1, 0, 43) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

func TestPlatformPower(t *testing.T) {
	for _, name := range []string{"CPU", "CPU-T", "GPU", "SmartSSD", "DS-c", "DS-cp", "NDSearch"} {
		w, err := PlatformPower(name)
		if err != nil || w <= 0 {
			t.Errorf("PlatformPower(%q) = %v, %v", name, w, err)
		}
	}
	if _, err := PlatformPower("abacus"); err == nil {
		t.Error("unknown platform must fail")
	}
	// The NDP designs must sit far below the host platforms.
	cpu, _ := PlatformPower("CPU")
	nd, _ := PlatformPower("NDSearch")
	if nd*5 > cpu {
		t.Errorf("power ordering broken: NDSEARCH %v W vs CPU %v W", nd, cpu)
	}
}

func TestEfficiency(t *testing.T) {
	if got := Efficiency(1000, 100); got != 10 {
		t.Errorf("Efficiency = %v", got)
	}
	if Efficiency(10, 0) != 0 {
		t.Error("zero watts must return 0")
	}
}
