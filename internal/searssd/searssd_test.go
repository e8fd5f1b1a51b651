package searssd

import (
	"testing"
	"time"

	"ndsearch/internal/vec"
)

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidateRejectsBadValues(t *testing.T) {
	p := DefaultParams()
	p.DRAMBytesPerSec = 0
	if p.Validate() == nil {
		t.Error("zero DRAM bandwidth must fail")
	}
	p = DefaultParams()
	p.EmbeddedCores = 0
	if p.Validate() == nil {
		t.Error("zero cores must fail")
	}
	p = DefaultParams()
	p.ResultEntryBytes = 0
	if p.Validate() == nil {
		t.Error("zero entry bytes must fail")
	}
	p = DefaultParams()
	p.Geometry.Channels = 0
	if p.Validate() == nil {
		t.Error("bad geometry must fail")
	}
}

func TestVgenCost(t *testing.T) {
	p := DefaultParams()
	if p.VgenCost(0, 0) != 0 {
		t.Error("empty iteration must cost zero")
	}
	small := p.VgenCost(10, 100)
	big := p.VgenCost(10, 10000)
	if big <= small {
		t.Error("cost must grow with neighbor volume")
	}
	// Fetching 2048 queries x 32 neighbors must stay well under a page
	// sense: the Vgenerator is not the bottleneck in the paper.
	d := p.VgenCost(2048, 2048*32)
	if d > 200*time.Microsecond {
		t.Errorf("Vgen cost %v implausibly high", d)
	}
}

func TestAllocCost(t *testing.T) {
	p := DefaultParams()
	if p.AllocCost(0) != 0 {
		t.Error("zero tasks cost zero")
	}
	if p.AllocCost(1000) != 1000*p.AllocPerTask {
		t.Error("alloc cost must be linear")
	}
}

func TestPageSenseCost(t *testing.T) {
	p := DefaultParams()
	got := p.PageSenseCost()
	if got <= p.Timing.ReadPage {
		t.Error("page sense must include ECC")
	}
	if got > p.Timing.ReadPage+2*time.Microsecond {
		t.Errorf("expected ECC overhead small at 1%% failures, got %v total", got)
	}
}

func TestMACCost(t *testing.T) {
	p := DefaultParams()
	if p.MACCost(0, 128) != 0 {
		t.Error("zero distances cost zero")
	}
	one := p.MACCost(1, 128)
	ten := p.MACCost(10, 128)
	if ten != 10*one {
		t.Errorf("MAC cost not linear: %v vs 10x%v", ten, one)
	}
	// 128-dim distance on a 2-lane 800 MHz MAC group: 72 cycles = 90ns.
	if one < 80*time.Nanosecond || one > 100*time.Nanosecond {
		t.Errorf("per-distance MAC = %v, want ~90ns", one)
	}
}

func TestOutputBytes(t *testing.T) {
	p := DefaultParams()
	if got := p.OutputBytes(100); got != 1200 {
		t.Errorf("OutputBytes(100) = %d, want 1200", got)
	}
}

func TestGatherCost(t *testing.T) {
	p := DefaultParams()
	if p.GatherCost(0) != 0 {
		t.Error("zero queries cost zero")
	}
	// 4 cores: 8 queries -> 2 serial ops.
	if got := p.GatherCost(8); got != 2*p.CoreOpLatency {
		t.Errorf("GatherCost(8) = %v, want %v", got, 2*p.CoreOpLatency)
	}
	// Ceil division.
	if got := p.GatherCost(9); got != 3*p.CoreOpLatency {
		t.Errorf("GatherCost(9) = %v, want %v", got, 3*p.CoreOpLatency)
	}
}

func TestHostUploadCost(t *testing.T) {
	p := DefaultParams()
	// 2048 sift queries: 2048 * (8 + 128) B at 15.4 GB/s ≈ 18 us.
	d := p.HostUploadCost(2048, 128, vec.U8)
	if d < 10*time.Microsecond || d > 40*time.Microsecond {
		t.Errorf("upload cost = %v, want ~18us", d)
	}
}

func TestResultShipAndSort(t *testing.T) {
	p := DefaultParams()
	entries := 2048 * 64
	ship := p.ResultShipCost(entries)
	sort := p.SortCost(entries)
	if ship <= 0 || sort <= 0 {
		t.Error("non-trivial batch must cost time")
	}
	// Fig. 17: the FPGA sort kernel is at most ~12% of a batch; both
	// terms must sit in the sub-millisecond range.
	if ship > time.Millisecond || sort > time.Millisecond {
		t.Errorf("ship %v / sort %v implausibly slow", ship, sort)
	}
}
