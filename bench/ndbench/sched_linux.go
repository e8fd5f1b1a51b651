package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is a CPU affinity mask as sched_setaffinity takes it.
type cpuMask [16]uint64

const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID

// threadCPU is the CPU time the calling thread has used.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// allowedCPUs is the affinity mask of the calling thread.
func allowedCPUs() (cpuMask, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m, nil
}

// firstCPU is the mask of m's lowest CPU alone.
func (m cpuMask) firstCPU() cpuMask {
	var one cpuMask
	for i, w := range m {
		if w != 0 {
			one[i] = 1 << bits.TrailingZeros64(w)
			break
		}
	}
	return one
}

// setAffinity moves every thread of the processes pids onto the CPUs of
// m. Threads they start later inherit it. It walks the thread lists
// twice, to catch a thread started by one not yet moved.
func setAffinity(m cpuMask, pids ...int) error {
	for pass := 0; pass < 2; pass++ {
		for _, pid := range pids {
			tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
			if err != nil {
				return err
			}
			for _, t := range tasks {
				tid, err := strconv.Atoi(t.Name())
				if err != nil {
					continue
				}
				_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
				if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
					return fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
				}
			}
		}
	}
	return nil
}
