package main

import (
	"math"
	"testing"
	"time"
)

func TestWalkIsDeterministic(t *testing.T) {
	g := calibData()
	if a, b := g.walk(7), g.walk(7); a != b {
		t.Errorf("two walks from node 7 ended at %d and %d", a, b)
	}
	if g.walk(7) == g.walk(8) && g.walk(8) == g.walk(9) {
		t.Error("walks from three nodes all ended at the same node")
	}
	if a, b := g.spin(7), g.spin(7); a != b {
		t.Errorf("two spins from 7 returned %d and %d", a, b)
	}
}

func TestCalibratorTicksAtMostEveryInterval(t *testing.T) {
	c := newCalibrator(0)
	for at := time.Duration(0); at < 10*calibEvery; at += calibEvery / 4 {
		c.tick(at)
	}
	if len(c.samples) != 10 {
		t.Errorf("%d calibrations in 10 intervals, want 10", len(c.samples))
	}
	for _, s := range c.samples {
		if s.cpu <= 0 {
			t.Errorf("calibration at %v measured %v of CPU time", s.at, s.cpu)
		}
	}
}

func TestRefClockScalesWallTimeBySliceSpeed(t *testing.T) {
	at := func(slice int, cpu time.Duration) calibSample {
		return calibSample{at: time.Duration(slice)*calibSlice + time.Millisecond, cpu: cpu}
	}
	// Slice 0 has no calibration and borrows slice 1's speed; slice 1's
	// median calibration takes half the nominal time; slice 2 has none
	// and keeps slice 1's speed; slice 3's takes twice the nominal time.
	c := newRefClock([]calibSample{
		at(1, calibNominal/2), at(1, calibNominal/2), at(1, 10*calibNominal),
		at(3, 2*calibNominal),
	}, 4*calibSlice)
	fast, slow := math.Pow(2, calibExponent), math.Pow(0.5, calibExponent)
	for i, w := range []float64{fast, fast, fast, slow} {
		if math.Abs(c.factor[i]-w) > 1e-12 {
			t.Errorf("factor[%d] = %g, want %g", i, c.factor[i], w)
		}
	}
	near := func(got time.Duration, want float64) bool { return math.Abs(float64(got)-want) < 2 }
	if got, want := c.between(0, 4*calibSlice), (3*fast+slow)*float64(calibSlice); !near(got, want) {
		t.Errorf("whole window = %v of reference time, want %v", got, time.Duration(want))
	}
	// Half of slice 2 and half of slice 3.
	if got, want := c.between(2*calibSlice+calibSlice/2, 3*calibSlice+calibSlice/2), (fast+slow)/2*float64(calibSlice); !near(got, want) {
		t.Errorf("across the slice boundary = %v, want %v", got, time.Duration(want))
	}
	if got := c.between(calibSlice, calibSlice); got != 0 {
		t.Errorf("an empty interval = %v, want 0", got)
	}
}

func TestRefClockWithoutWalksIsTheWallClock(t *testing.T) {
	c := newRefClock(nil, time.Second)
	if got := c.between(100*time.Millisecond, 900*time.Millisecond); got != 800*time.Millisecond {
		t.Errorf("uncalibrated 800ms = %v", got)
	}
}

func TestRefDurLeavesTheReportedWaitUnscaled(t *testing.T) {
	// The machine runs at half reference speed throughout.
	w := &window{clients: 2, clock: newRefClock([]calibSample{{at: 0, cpu: 2 * calibNominal}}, calibSlice)}
	slow := math.Pow(0.5, calibExponent)
	r := request{start: 10 * time.Millisecond, dur: 4 * time.Millisecond, wait: time.Millisecond, queries: 1}
	want := float64(time.Millisecond) + 3*float64(time.Millisecond)*slow
	if got := w.refDur(r); math.Abs(float64(got)-want) > 2 {
		t.Errorf("refDur = %v, want the 1ms wait plus 3ms of work scaled: %v", got, time.Duration(want))
	}
	// Two closed-loop clients, one such request each: two queries in
	// the reference time of one request.
	w.reqs = []request{r, r}
	if got, want := w.qps(), 2/(want/float64(time.Second)); math.Abs(got-want) > 1e-6*want {
		t.Errorf("qps = %g, want %g", got, want)
	}
	if got := w.refDur(request{dur: time.Millisecond, wait: 2 * time.Millisecond}); got != time.Millisecond {
		t.Errorf("a wait longer than the request: refDur = %v, want the request's 1ms", got)
	}
}
