package bitonic

import "testing"

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestStages(t *testing.T) {
	// Classic closed forms: for p=2^m, stages = m(m+1)/2.
	cases := map[int]int{2: 1, 4: 3, 8: 6, 16: 10, 1024: 55}
	for n, want := range cases {
		if got := Stages(n); got != want {
			t.Errorf("Stages(%d) = %d, want %d", n, got, want)
		}
	}
	if got := Stages(3); got != Stages(4) {
		t.Error("non-power-of-two should round up")
	}
}

func TestFPGAModel(t *testing.T) {
	f := DefaultFPGAModel()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if f.SortLatency(0) != 0 {
		t.Error("zero items should cost zero time")
	}
	l1 := f.SortLatency(256)
	l2 := f.SortLatency(2048)
	if l1 <= 0 || l2 <= l1 {
		t.Errorf("latency must grow with n: %v then %v", l1, l2)
	}
	// One full batch through a 256-lane network at 250 MHz should sit in
	// the microsecond range, consistent with <=12%% of end-to-end latency.
	if l2 > 1e-3 {
		t.Errorf("sort of 2048 items too slow: %v s", l2)
	}
	bad := FPGAModel{ClockHz: 0, Lanes: 4}
	if bad.Validate() == nil {
		t.Error("zero clock must fail validation")
	}
	bad = FPGAModel{ClockHz: 1e8, Lanes: 1}
	if bad.Validate() == nil {
		t.Error("single lane must fail validation")
	}
}
