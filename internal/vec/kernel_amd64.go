package vec

// AVX2 bodies of the two L2 kernels the served corpora run: float32
// rows (l2sq4) and u8 at-rest rows (l2sqU8). Each entry is bit-identical
// to its Go body (TestAsmKernelsMatchGeneric's reference): an 8-element
// step subtracts and squares 8 lanes, then adds the low 4-lane half and
// after it the high half into the accumulator, so lane j is the Go
// kernel's s_j and sums its elements in the same order; a dim % 8 ≥ 4
// remainder is one 4-lane step, the dim % 4 tail goes into lane 0, and
// the fold is (s0+s1)+(s2+s3). No step is fused (no FMA). The four-row
// entries exist for speed — four rows' add chains in one loop, their
// loads overlapping — and each of their results is the one-row result.
// The one exception is l2sqF32x4FMA, which reorders and fuses freely:
// it runs only on byte-valued operands, where no step can round
// (byteValued in kernel.go), so it too yields l2sq4's bits.
//
// useAVX2 is decided once, at init: CPUID must report AVX2 and XGETBV
// must show the OS saving YMM state. When it is false each entry jumps
// to its Go body (l2sq4, l2sq4Rows4, l2sqU8, l2sqU8Rows4), so an amd64
// CPU without AVX2 computes the same bits, only slower.
//
// Contract: every row holds at least len(q) elements (bytes for U8).
// The assembly reads exactly len(q) of each and checks nothing, so
// callers slice rows to len(q) in Go first.

var useAVX2 = cpuHasAVX2()

// useFMA additionally enables the order-free body l2sqF32x4FMA: CPUID
// leaf 1 must report FMA (ECX bit 12) on a CPU useAVX2 accepted, whose
// OS saves the YMM state the FMA body runs in. When it is false the
// body jumps to l2sq4Rows4, and Kernel.DistsTo does not take it.
var useFMA = useAVX2 && cpuHasFMA()

// cpuHasFMA reports CPUID leaf 1's FMA bit.
func cpuHasFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0
}

// cpuHasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches. XGETBV is only executed once
// CPUID has reported OSXSAVE.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xgetbv0()&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax uint32)

//go:noescape
func l2sqF32x1(a, b []float32) float32

//go:noescape
func l2sqF32x4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32)

//go:noescape
func l2sqF32x4FMA(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32)

//go:noescape
func l2sqU8x1(a []float32, b []byte) float32

//go:noescape
func l2sqU8x4(q []float32, b0, b1, b2, b3 []byte) (d0, d1, d2, d3 float32)
