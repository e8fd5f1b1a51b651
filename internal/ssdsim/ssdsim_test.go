package ssdsim

import "testing"

func TestBreakdown(t *testing.T) {
	b := Breakdown{}
	b.Add("nand", 30)
	b.Add("bus", 10)
	b.Add("nand", 30)
	if b.Total() != 70 {
		t.Errorf("total = %v", b.Total())
	}
	fr := b.Fractions()
	if len(fr) != 2 || fr[0].Category != "nand" {
		t.Errorf("fractions = %+v", fr)
	}
	if fr[0].Share < 0.85 || fr[0].Share > 0.86 {
		t.Errorf("nand share = %v, want 6/7", fr[0].Share)
	}
	empty := Breakdown{}
	if len(empty.Fractions()) != 0 || empty.Total() != 0 {
		t.Error("empty breakdown mishandled")
	}
}

func TestBreakdownZeroTotalShares(t *testing.T) {
	b := Breakdown{"x": 0}
	fr := b.Fractions()
	if fr[0].Share != 0 {
		t.Error("zero-total shares must be 0")
	}
}
