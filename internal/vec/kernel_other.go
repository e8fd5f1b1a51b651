//go:build !amd64

package vec

// The L2 kernel entries off amd64: the Go bodies themselves, so every
// GOARCH computes the same bits (see kernel_amd64.go for the contract).

// useAVX2 is false off amd64: there is no assembly to dispatch to.
const useAVX2 = false

// useFMA is false off amd64: Kernel.DistsTo never takes the order-free
// body.
const useFMA = false

func l2sqF32x1(a, b []float32) float32 { return l2sq4(a, b) }

func l2sqF32x4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	return l2sq4Rows4(q, r0, r1, r2, r3)
}

func l2sqF32x4FMA(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	return l2sq4Rows4(q, r0, r1, r2, r3)
}

func l2sqU8x1(a []float32, b []byte) float32 { return l2sqU8(a, b) }

func l2sqU8x4(q []float32, b0, b1, b2, b3 []byte) (d0, d1, d2, d3 float32) {
	return l2sqU8Rows4(q, b0, b1, b2, b3)
}
