package main

import (
	"math"
	"sort"
)

// rank is the 1-based nearest rank of the p-th percentile (0 < p <= 100)
// among n samples. The epsilon keeps p*n/100 from rounding up when it is
// a whole number that floating point overshoots.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// method, so the value is always one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// samplesBeyond is how many of n samples lie strictly above the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - rank(n, p)
}

// tailPercentiles are the tail candidates, ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest tail percentile that still has
// at least ten samples beyond it, or 0 when n supports none.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if samplesBeyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		//ndvet:ignore kernelpurity adds measured samples in slice order, not vector elements
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	return ratio(sum(xs), float64(len(xs)))
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b, and 0 when the base is empty: a layer the workload
// bypasses reports 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
