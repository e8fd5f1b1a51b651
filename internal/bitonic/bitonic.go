// Package bitonic models the bitonic sorting network that NDSEARCH
// offloads to the FPGA (§IV-A, [66]): the network's stage count drives
// the FPGA latency model in the system simulation (the FPGA evaluates
// one network stage per clock across parallel comparator columns).
package bitonic

import (
	"fmt"
	"math/bits"
)

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Stages returns the number of comparator stages of a bitonic network
// over n inputs (n rounded up to a power of two): log2(p)*(log2(p)+1)/2.
func Stages(n int) int {
	p := NextPow2(n)
	lg := bits.Len(uint(p)) - 1
	return lg * (lg + 1) / 2
}

// FPGAModel captures the bitonic kernel's hardware envelope from [66]:
// a fully pipelined column of comparators evaluating one stage per clock.
type FPGAModel struct {
	// ClockHz is the FPGA fabric clock.
	ClockHz float64
	// Lanes is the number of items sorted per pass (network width).
	Lanes int
}

// DefaultFPGAModel returns the configuration used by the paper's
// evaluation: a 256-lane network at 250 MHz (its 7.5 W draw is
// energy.FPGAWatts).
func DefaultFPGAModel() FPGAModel {
	return FPGAModel{ClockHz: 250e6, Lanes: 256}
}

// SortLatency returns the time to sort n items: the items are streamed
// through the Lanes-wide network in ceil(n/Lanes) passes, each pass
// costing Stages(Lanes) pipeline beats plus fill/drain.
func (f FPGAModel) SortLatency(n int) float64 {
	if n <= 0 {
		return 0
	}
	lanes := f.Lanes
	if lanes < 2 {
		lanes = 2
	}
	passes := (n + lanes - 1) / lanes
	stages := Stages(lanes)
	// Pipelined: consecutive passes overlap after the first fill.
	cycles := stages + passes - 1
	// Merging pass results costs one extra network traversal per doubling.
	if passes > 1 {
		cycles += Stages(passes) * passes / 2
	}
	return float64(cycles) / f.ClockHz
}

// Validate checks the model's parameters.
func (f FPGAModel) Validate() error {
	if f.ClockHz <= 0 {
		return fmt.Errorf("bitonic: non-positive clock %v", f.ClockHz)
	}
	if f.Lanes < 2 {
		return fmt.Errorf("bitonic: lanes must be >= 2, got %d", f.Lanes)
	}
	return nil
}
