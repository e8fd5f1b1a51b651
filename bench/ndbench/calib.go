package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// This sandbox's vCPUs change speed under the benchmark: the same search
// runs up to 1.5x slower or faster for seconds or minutes at a time,
// whatever the harness does (README "Noise"). The end-to-end timings are
// therefore taken on a reference clock. Between requests every client
// calibrates: it runs a fixed piece of work of the harness's own, which
// strains the core and the caches the way a graph search does but shares
// no code with the program under test. The thread CPU time of a
// calibration says how fast the machine is at that moment, and wall time
// is stretched or shrunk accordingly before it is counted. A change to
// the program cannot move the calibration, so it moves the reported
// metrics as it would move wall time on a steady machine.
//
// The machine has two speeds that move apart: how fast the core computes
// from warm caches, and how long a cache miss takes. A calibration is
// therefore one walk (a greedy walk over a private random graph, nearly
// all cache misses after the program has had the caches) and calibSpins
// spins (the same arithmetic over rows that stay in L1), about half of
// its time each.

const (
	calibEvery = 20 * time.Millisecond // a client calibrates at most this often
	calibSpins = 4                     // spins per walk
	// calibSlice is the resolution of the reference clock: the window is
	// cut into slices, and each slice's speed is the median of its
	// calibrations.
	calibSlice = 200 * time.Millisecond
	// calibNominal is the CPU time of one calibration at reference speed,
	// about what this sandbox needs in its usual state, so that reference
	// time and wall time roughly agree on a usual day. It only fixes the
	// scale of the reported numbers.
	calibNominal = 390 * time.Microsecond
	// calibExponent is how much of the calibration's slowdown the serving
	// stack shares: a slice whose calibrations take c counts
	// (calibNominal/c)^calibExponent reference seconds per second. Over
	// forty dumped runs the ten-run spreads were smallest at 0.7
	// (ram_batch) to 1 (paged_batch). The exponent sets how much of the
	// machine's swing is removed, not where the numbers settle.
	calibExponent = 0.85

	calibNodes, calibDim, calibDegree, calibHops = 8192, 128, 16, 40
	calibSpinRows                                = 32 // 16 KiB of vectors
)

// calibGraph is the calibration's private data: calibNodes random
// vectors (4 MiB, like the corpus) and calibDegree random neighbours per
// node.
type calibGraph struct {
	vecs []float32
	nbrs []uint32
}

var calibData = sync.OnceValue(func() *calibGraph {
	g := &calibGraph{
		vecs: make([]float32, calibNodes*calibDim),
		nbrs: make([]uint32, calibNodes*calibDegree),
	}
	x := uint32(12345) // a fixed LCG: the walk is the same in every run
	for i := range g.vecs {
		x = x*1664525 + 1013904223
		g.vecs[i] = float32(x>>24) / 255
	}
	for i := range g.nbrs {
		x = x*1664525 + 1013904223
		g.nbrs[i] = (x >> 8) % calibNodes
	}
	return g
})

// walk moves calibHops times from cur to the neighbour nearest to a
// query vector, computing calibHops x calibDegree distances, about what
// one HNSW shard search computes. It returns where it ended.
func (g *calibGraph) walk(cur uint32) uint32 {
	q := g.vecs[int(cur^0x555)%calibNodes*calibDim:][:calibDim]
	for h := uint32(0); h < calibHops; h++ {
		best, bestDist := cur, float32(3.4e38)
		for _, nb := range g.nbrs[int(cur)*calibDegree:][:calibDegree] {
			row := g.vecs[int(nb)*calibDim:][:calibDim]
			var dist float32
			for j, v := range row {
				d := v - q[j]
				//ndvet:ignore kernelpurity the calibration must not share a kernel with the program it calibrates
				dist += d * d
			}
			if dist < bestDist {
				best, bestDist = nb, dist
			}
		}
		cur = (best + h) % calibNodes // the hop count keeps the walk from settling
	}
	return cur
}

// spin computes as many distances as a walk does, over calibSpinRows
// rows that stay in L1.
func (g *calibGraph) spin(cur uint32) uint32 {
	q := g.vecs[:calibDim]
	best, bestDist := cur, float32(3.4e38)
	for h := uint32(0); h < calibHops*calibDegree; h++ {
		nb := (cur + h*7) % calibSpinRows
		row := g.vecs[int(nb+1)*calibDim:][:calibDim]
		var dist float32
		for j, v := range row {
			d := v - q[j]
			//ndvet:ignore kernelpurity the calibration must not share a kernel with the program it calibrates
			dist += d * d
		}
		if dist < bestDist {
			best, bestDist = nb, dist
		}
	}
	return cur + best + 1
}

// calibSample is the thread CPU time one calibration took at a moment of
// the window.
type calibSample struct {
	at  time.Duration
	cpu time.Duration
}

// calibrator runs one client's calibrations.
type calibrator struct {
	g       *calibGraph
	cur     uint32
	next    time.Duration // no calibration before this moment
	samples []calibSample
}

func newCalibrator(client int) *calibrator {
	return &calibrator{g: calibData(), cur: uint32(client)}
}

// tick calibrates if calibEvery has passed since the client last did.
// The goroutine stays on one thread meanwhile, so that the thread's CPU
// clock times the calibration and nothing else.
func (c *calibrator) tick(at time.Duration) {
	if at < c.next {
		return
	}
	c.next = at + calibEvery
	runtime.LockOSThread()
	start := threadCPU()
	c.cur = c.g.walk(c.cur)
	for i := 0; i < calibSpins; i++ {
		c.cur = c.g.spin(c.cur) % calibNodes
	}
	cpu := threadCPU() - start
	runtime.UnlockOSThread()
	c.samples = append(c.samples, calibSample{at: at, cpu: cpu})
}

// refClock maps the wall time of a window to reference time: factor[i]
// is the reference time that passes per unit of wall time in slice i,
// below 1 while the machine is slow.
type refClock struct {
	factor []float64
}

// newRefClock builds the clock of a window that lasted until end. A
// slice without a calibration runs at the speed of the nearest earlier
// slice that has one, or else the nearest later one; a window without
// any runs at reference speed.
func newRefClock(samples []calibSample, end time.Duration) refClock {
	n := int((end + calibSlice - 1) / calibSlice)
	bySlice := make([][]float64, n)
	for _, s := range samples {
		if i := int(s.at / calibSlice); i < n && s.cpu > 0 {
			bySlice[i] = append(bySlice[i], float64(s.cpu))
		}
	}
	c := refClock{factor: make([]float64, n)}
	last := 0.0
	for i, cpus := range bySlice {
		if len(cpus) > 0 {
			last = math.Pow(float64(calibNominal)/median(cpus), calibExponent)
		}
		c.factor[i] = last
	}
	for i := n - 1; i >= 0; i-- { // leading slices without a calibration
		if c.factor[i] == 0 {
			c.factor[i] = 1
			if i+1 < n {
				c.factor[i] = c.factor[i+1]
			}
		}
	}
	return c
}

// between is the reference time that passed between two moments of the
// window: the integral of factor over [from, to).
func (c refClock) between(from, to time.Duration) time.Duration {
	var ref float64
	for i := int(from / calibSlice); i < len(c.factor); i++ {
		lo, hi := max(from, time.Duration(i)*calibSlice), min(to, time.Duration(i+1)*calibSlice)
		if hi <= lo {
			break
		}
		//ndvet:ignore kernelpurity adds slices of time in order, not vector elements
		ref += float64(hi-lo) * c.factor[i]
	}
	return time.Duration(ref)
}
