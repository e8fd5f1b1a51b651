package vec

// SSE2 bodies of the two L2 kernels the served corpora run: float32
// rows (l2sq4) and u8 at-rest rows (l2sqU8). SSE2 is the amd64
// baseline, so there is nothing to detect or dispatch. Each entry is
// bit-identical to its Go body (kernel_other.go's definitions, and
// TestAsmKernelsMatchGeneric's reference): SSE lane j is accumulator
// s_j, the dim % 4 tail goes into lane 0, and the fold is
// (s0+s1)+(s2+s3). The four-row entries exist for speed — four rows'
// add chains in one loop, their loads overlapping — and each of their
// results is the one-row result.
//
// Contract: every row holds at least len(q) elements (bytes for U8).
// The assembly reads exactly len(q) of each and checks nothing, so
// callers slice rows to len(q) in Go first.

//go:noescape
func l2sqF32x1(a, b []float32) float32

//go:noescape
func l2sqF32x4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32)

//go:noescape
func l2sqU8x1(a []float32, b []byte) float32

//go:noescape
func l2sqU8x4(q []float32, b0, b1, b2, b3 []byte) (d0, d1, d2, d3 float32)
