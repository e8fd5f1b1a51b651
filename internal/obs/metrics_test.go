package obs

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounter(t *testing.T) {
	c := NewCounter("nd_test_total", "test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value() = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("nd_test_seconds", "test histogram", []float64{1, 2, 4})
	r.Register(h)
	// Boundary sample lands in the le=bound bucket; past-last lands in +Inf.
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 9} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	if got := h.Sum(); got != 21 {
		t.Fatalf("Sum() = %v, want 21", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`nd_test_seconds_bucket{le="1"} 2`,
		`nd_test_seconds_bucket{le="2"} 4`,
		`nd_test_seconds_bucket{le="4"} 6`,
		`nd_test_seconds_bucket{le="+Inf"} 7`,
		`nd_test_seconds_sum 21`,
		`nd_test_seconds_count 7`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestFormatFloat pins the sample rendering: integral values print in
// full (a scrape-time counter past 1e6 must read like a Counter's %d),
// everything else — including the histogram le labels — keeps the
// shortest round-trip form.
func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {7, "7"}, {-3, "-3"},
		{999999, "999999"}, {1e6, "1000000"}, {2570123, "2570123"},
		{1<<53 - 1, "9007199254740991"},
		{1 << 53, "9.007199254740992e+15"}, {1e21, "1e+21"},
		{5e-05, "5e-05"}, {0.00025, "0.00025"}, {2.5, "2.5"}, {10, "10"}, {4096, "4096"},
		{1234567.5, "1.2345675e+06"},
		{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"}, {math.NaN(), "NaN"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
	// The standard bucket labels are unchanged by the integral rule.
	for _, b := range append(append([]float64(nil), LatencyBuckets...), SizeBuckets...) {
		if got, want := formatFloat(b), strconv.FormatFloat(b, 'g', -1, 64); got != want {
			t.Errorf("bucket label %v renders %q, want %q", b, got, want)
		}
	}

	r := NewRegistry()
	r.Register(NewCounterFunc("nd_big_total", "b", func() float64 { return 2570123 }))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "nd_big_total 2570123\n") {
		t.Fatalf("scrape-time counter rendered with an exponent:\n%s", b.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Register(NewCounter("nd_dup_total", "first"))
	mustPanic("duplicate name", func() { r.Register(NewCounter("nd_dup_total", "second")) })
	mustPanic("empty name", func() { r.Register(NewCounter("", "x")) })
	mustPanic("bad char", func() { r.Register(NewCounter("nd-dash", "x")) })
	mustPanic("leading digit", func() { r.Register(NewCounter("9metric", "x")) })
	mustPanic("empty bounds", func() { NewHistogram("nd_h1", "x", nil) })
	mustPanic("unordered bounds", func() { NewHistogram("nd_h2", "x", []float64{2, 1}) })
	mustPanic("infinite bound", func() { NewHistogram("nd_h3", "x", []float64{1, math.Inf(1)}) })
}

func TestExpositionSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Register(
		NewCounter("nd_zeta_total", "z"),
		NewGaugeFunc("nd_alpha", "a", func() float64 { return 0 }),
		NewGaugeFunc("nd_mid", "m", func() float64 { return 7 }),
	)
	var b1, b2 strings.Builder
	if err := r.WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("two scrapes of identical state differ")
	}
	alpha := strings.Index(b1.String(), "nd_alpha")
	mid := strings.Index(b1.String(), "nd_mid")
	zeta := strings.Index(b1.String(), "nd_zeta_total")
	if !(alpha < mid && mid < zeta) {
		t.Fatalf("exposition not sorted by name:\n%s", b1.String())
	}
	if !strings.Contains(b1.String(), "nd_mid 7\n") {
		t.Fatalf("func metric not rendered:\n%s", b1.String())
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("nd_conc_total", "c")
	h := NewHistogram("nd_conc_seconds", "h", LatencyBuckets)
	r.Register(c, h)
	var mx atomic.Int64
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1e-3)
				StoreMax(&mx, int64(i))
			}
		}()
	}
	// Scrape concurrently with the updates to exercise the reader path.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := mx.Load(); got != per-1 {
		t.Errorf("StoreMax = %d, want %d", got, per-1)
	}
}

func TestStandardBucketsAscending(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds []float64
	}{{"LatencyBuckets", LatencyBuckets}, {"SizeBuckets", SizeBuckets}} {
		for i := 1; i < len(tc.bounds); i++ {
			if tc.bounds[i] <= tc.bounds[i-1] {
				t.Errorf("%s not strictly ascending at %d", tc.name, i)
			}
		}
	}
}
