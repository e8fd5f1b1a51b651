package nand

import (
	"testing"
	"time"
)

func TestDefaultGeometryMatchesPaper(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalLUNs() != 256 {
		t.Errorf("TotalLUNs = %d, want 256 (the paper's LUN-accelerator count)", g.TotalLUNs())
	}
	if g.TotalPlanes() != 512 {
		t.Errorf("TotalPlanes = %d, want 512", g.TotalPlanes())
	}
	if got := g.CapacityBytes(); got != 512<<30 {
		t.Errorf("capacity = %d, want 512 GiB", got)
	}
	if g.LUNsPerChip() != 2 || g.LUNsPerChannel() != 8 {
		t.Errorf("LUN layout wrong: %d per chip, %d per channel", g.LUNsPerChip(), g.LUNsPerChannel())
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := DefaultGeometry()
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Error("zero channels must fail")
	}
	bad = DefaultGeometry()
	bad.PlanesPerLUN = 3 // does not divide 4
	if bad.Validate() == nil {
		t.Error("non-dividing PlanesPerLUN must fail")
	}
}

func TestInternalBandwidthMatchesFig2(t *testing.T) {
	g := DefaultGeometry()
	tm := DefaultTiming()
	bw := tm.InternalBandwidth(g)
	// Paper Fig. 2(b): 819.2 GB/s when all page buffers are read
	// simultaneously.
	want := 819.2e9
	if bw < want*0.999 || bw > want*1.001 {
		t.Errorf("internal bandwidth = %.1f GB/s, want 819.2", bw/1e9)
	}
}

func TestAddressValidate(t *testing.T) {
	g := DefaultGeometry()
	good := Address{Channel: 31, Chip: 3, LUN: 1, Plane: 1, Block: 511, Page: 127, Column: 16383}
	if err := good.Validate(g); err != nil {
		t.Error(err)
	}
	cases := []Address{
		{Channel: 32}, {Chip: 4}, {LUN: 2}, {Plane: 2},
		{Block: 512}, {Page: 128}, {Column: 16384},
		{Channel: -1},
	}
	for i, a := range cases {
		if a.Validate(g) == nil {
			t.Errorf("case %d should fail: %+v", i, a)
		}
	}
}

func TestGlobalLUNRoundTrip(t *testing.T) {
	g := DefaultGeometry()
	for global := 0; global < g.TotalLUNs(); global++ {
		ch, chip, lun, err := LUNFromGlobal(g, global)
		if err != nil {
			t.Fatal(err)
		}
		a := Address{Channel: ch, Chip: chip, LUN: lun}
		if got := a.GlobalLUN(g); got != global {
			t.Fatalf("round trip %d -> %d", global, got)
		}
	}
	if _, _, _, err := LUNFromGlobal(g, -1); err == nil {
		t.Error("negative global LUN must fail")
	}
	if _, _, _, err := LUNFromGlobal(g, g.TotalLUNs()); err == nil {
		t.Error("out-of-range global LUN must fail")
	}
}

func TestGlobalPageUnique(t *testing.T) {
	g := DefaultGeometry()
	seen := map[int64]bool{}
	// Spot-check a slice of addresses for collisions.
	for ch := 0; ch < 2; ch++ {
		for chip := 0; chip < 2; chip++ {
			for lun := 0; lun < g.LUNsPerChip(); lun++ {
				for plane := 0; plane < g.PlanesPerLUN; plane++ {
					for block := 0; block < 3; block++ {
						for page := 0; page < 3; page++ {
							a := Address{Channel: ch, Chip: chip, LUN: lun, Plane: plane, Block: block, Page: page}
							id := a.GlobalPage(g)
							if seen[id] {
								t.Fatalf("GlobalPage collision at %+v", a)
							}
							seen[id] = true
						}
					}
				}
			}
		}
	}
}

func TestTiming(t *testing.T) {
	tm := DefaultTiming()
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tm.BusTransfer(800); got != time.Microsecond {
		t.Errorf("BusTransfer(800B at 800MB/s) = %v, want 1us", got)
	}
	if tm.BusTransfer(0) != 0 || tm.BusTransfer(-5) != 0 {
		t.Error("degenerate transfers should cost zero")
	}
	bad := Timing{}
	if bad.Validate() == nil {
		t.Error("zero timing must fail")
	}
}

func TestCheckMultiPlane(t *testing.T) {
	g := DefaultGeometry()
	base := Address{Channel: 1, Chip: 2, LUN: 0, Block: 7, Page: 9}
	p0, p1 := base, base
	p0.Plane, p1.Plane = 0, 1
	if err := CheckMultiPlane(g, []Address{p0, p1}); err != nil {
		t.Errorf("legal multi-plane group rejected: %v", err)
	}
	// Repeated plane.
	if err := CheckMultiPlane(g, []Address{p0, p0}); err == nil {
		t.Error("repeated plane must fail")
	}
	// Different page.
	bad := p1
	bad.Page = 10
	if err := CheckMultiPlane(g, []Address{p0, bad}); err == nil {
		t.Error("different page must fail")
	}
	// Different LUN.
	other := p1
	other.LUN = 1
	if err := CheckMultiPlane(g, []Address{p0, other}); err == nil {
		t.Error("cross-LUN group must fail")
	}
	if err := CheckMultiPlane(g, nil); err == nil {
		t.Error("empty group must fail")
	}
}
