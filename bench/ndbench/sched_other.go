//go:build !linux

package main

import "time"

// Without Linux's per-thread CPU clock and affinity calls the harness
// still runs, unpinned and calibrated against wall time.

type cpuMask struct{}

func threadCPU() time.Duration { return time.Duration(now().UnixNano()) }

func allowedCPUs() (cpuMask, error) { return cpuMask{}, nil }

func (m cpuMask) firstCPU() cpuMask { return m }

func setAffinity(cpuMask, ...int) error { return nil }
