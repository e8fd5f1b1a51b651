package vec

import (
	"fmt"
	"math"
)

// This file is the at-rest scorer: a PreparedQuery evaluated straight
// against an F32/U8/I8 row in its Encode layout, with no decoded copy
// in between. It is what paged node stores score vectors with (the
// software twin of computing where the page is sensed); their SQ8 code
// rows go through the code-row scorer (DistanceToCodeBytes).
//
// Accumulation contract: each kernel widens a component exactly as
// DecodeInto does and folds it into the same four partial sums, in the
// same order and with the same final (s0+s1)+(s2+s3) fold, as l2sq4 /
// dot4 / squaredNorm. Widening is exact, so every result is
// bit-identical to DecodeInto followed by DistanceTo, and through that
// to the resident Kernel. The Angular kernels carry the dot and the
// row's squared norm through one pass in independent accumulators,
// which changes neither sum. L2 over U8 rows runs the AVX2 bodies on
// amd64 CPUs that have it (kernel_amd64.s), bit-identical to l2sqU8.

// DistanceToStored is the at-rest scorer, the one metric switch over
// rows at rest: the distance from the prepared query to one vector in
// its at-rest encoding of element kind k (the bytes Encode wrote), the
// row's norm computed on the fly for Angular. Bit-identical to
// DecodeInto + DistanceTo; src must be exactly StoredBytes(k, dim)
// long.
func (q *PreparedQuery) DistanceToStored(k ElemKind, src []byte) float32 {
	q.checkStored(k, src)
	switch q.metric {
	case L2:
		switch k {
		case F32:
			return l2sqF32(q.vec, src)
		case U8:
			return l2sqU8x1(q.vec, src)
		default:
			return l2sqS8(q.vec, src)
		}
	case Angular:
		var dot, sq float32
		switch k {
		case F32:
			dot, sq = dotNormF32(q.vec, src)
		case U8:
			dot, sq = dotNormU8(q.vec, src)
		default:
			dot, sq = dotNormS8(q.vec, src)
		}
		return angularFromDot(dot, q.norm, float32(math.Sqrt(float64(sq))))
	case InnerProduct:
		switch k {
		case F32:
			return -dotF32(q.vec, src)
		case U8:
			return -dotU8(q.vec, src)
		default:
			return -dotS8(q.vec, src)
		}
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", q.metric))
	}
}

// DistancesToStored evaluates the prepared query against each at-rest
// row of element kind k, writing out[i] = DistanceToStored(k, rows[i])
// bit for bit (len(out) must equal len(rows)). It is the batched entry
// paged stores score a resolved chunk of records through: L2 over U8
// rows runs four rows per kernel pass, like Kernel.DistsTo.
func (q *PreparedQuery) DistancesToStored(k ElemKind, rows [][]byte, out []float32) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("vec: DistancesToStored out length %d != rows %d", len(out), len(rows)))
	}
	i := 0
	if q.metric == L2 && k == U8 {
		for ; i+4 <= len(rows); i += 4 {
			r := rows[i : i+4 : i+4]
			for _, src := range r {
				q.checkStored(k, src)
			}
			out[i], out[i+1], out[i+2], out[i+3] = l2sqU8x4(q.vec, r[0], r[1], r[2], r[3])
		}
	}
	for ; i < len(rows); i++ {
		out[i] = q.DistanceToStored(k, rows[i])
	}
}

// checkStored panics unless src is one vector of q's dimension in
// element kind k — the check every at-rest entry makes before a kernel
// reads src.
func (q *PreparedQuery) checkStored(k ElemKind, src []byte) {
	if k > I8 {
		panic(fmt.Sprintf("vec: unknown element kind %d", k))
	}
	if len(src) != StoredBytes(k, len(q.vec)) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d stored bytes of %v", len(q.vec), len(src), k))
	}
}

// u8f32 and s8f32 widen a stored byte to float32 — float32(b) and
// float32(int8(b)), the values DecodeInto produces — by table. A scalar
// int→float convert per component is what bounds the byte kernels
// otherwise; the 1 KiB table stays in L1 and puts them at the same
// float-add bound as l2sq4 over a decoded row.
var u8f32, s8f32 = func() (u, s [256]float32) {
	for i := range u {
		u[i] = float32(uint8(i))
		s[i] = float32(int8(i))
	}
	return
}()

// ---- F32 rows -----------------------------------------------------------

func l2sqF32(a []float32, b []byte) float32 {
	b = b[:4*len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[4*i:4*i+16:4*i+16]
		d0 := x[0] - f32le(y[0:])
		d1 := x[1] - f32le(y[4:])
		d2 := x[2] - f32le(y[8:])
		d3 := x[3] - f32le(y[12:])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - f32le(b[4*i:])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

func dotF32(a []float32, b []byte) float32 {
	b = b[:4*len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[4*i:4*i+16:4*i+16]
		s0 += x[0] * f32le(y[0:])
		s1 += x[1] * f32le(y[4:])
		s2 += x[2] * f32le(y[8:])
		s3 += x[3] * f32le(y[12:])
	}
	for ; i < len(a); i++ {
		s0 += a[i] * f32le(b[4*i:])
	}
	return (s0 + s1) + (s2 + s3)
}

func dotNormF32(a []float32, b []byte) (dot, sq float32) {
	b = b[:4*len(a)]
	var s0, s1, s2, s3, n0, n1, n2, n3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[4*i:4*i+16:4*i+16]
		y0, y1, y2, y3 := f32le(y[0:]), f32le(y[4:]), f32le(y[8:]), f32le(y[12:])
		s0 += x[0] * y0
		s1 += x[1] * y1
		s2 += x[2] * y2
		s3 += x[3] * y3
		n0 += y0 * y0
		n1 += y1 * y1
		n2 += y2 * y2
		n3 += y3 * y3
	}
	for ; i < len(a); i++ {
		yi := f32le(b[4*i:])
		s0 += a[i] * yi
		n0 += yi * yi
	}
	return (s0 + s1) + (s2 + s3), (n0 + n1) + (n2 + n3)
}

// ---- U8 rows ------------------------------------------------------------

func l2sqU8(a []float32, b []byte) float32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		d0 := x[0] - u8f32[y[0]]
		d1 := x[1] - u8f32[y[1]]
		d2 := x[2] - u8f32[y[2]]
		d3 := x[3] - u8f32[y[3]]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - u8f32[b[i]]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// l2sqU8Rows4 is l2sqU8 from q to four rows: the Go body of the
// four-row entry l2sqU8x4.
func l2sqU8Rows4(q []float32, b0, b1, b2, b3 []byte) (d0, d1, d2, d3 float32) {
	return l2sqU8(q, b0), l2sqU8(q, b1), l2sqU8(q, b2), l2sqU8(q, b3)
}

func dotU8(a []float32, b []byte) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += x[0] * u8f32[y[0]]
		s1 += x[1] * u8f32[y[1]]
		s2 += x[2] * u8f32[y[2]]
		s3 += x[3] * u8f32[y[3]]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * u8f32[b[i]]
	}
	return (s0 + s1) + (s2 + s3)
}

func dotNormU8(a []float32, b []byte) (dot, sq float32) {
	b = b[:len(a)]
	var s0, s1, s2, s3, n0, n1, n2, n3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		y0, y1, y2, y3 := u8f32[y[0]], u8f32[y[1]], u8f32[y[2]], u8f32[y[3]]
		s0 += x[0] * y0
		s1 += x[1] * y1
		s2 += x[2] * y2
		s3 += x[3] * y3
		n0 += y0 * y0
		n1 += y1 * y1
		n2 += y2 * y2
		n3 += y3 * y3
	}
	for ; i < len(a); i++ {
		yi := u8f32[b[i]]
		s0 += a[i] * yi
		n0 += yi * yi
	}
	return (s0 + s1) + (s2 + s3), (n0 + n1) + (n2 + n3)
}

// ---- I8 rows (S8: signed bytes widened to float32) -----------------------

func l2sqS8(a []float32, b []byte) float32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		d0 := x[0] - s8f32[y[0]]
		d1 := x[1] - s8f32[y[1]]
		d2 := x[2] - s8f32[y[2]]
		d3 := x[3] - s8f32[y[3]]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - s8f32[b[i]]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

func dotS8(a []float32, b []byte) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += x[0] * s8f32[y[0]]
		s1 += x[1] * s8f32[y[1]]
		s2 += x[2] * s8f32[y[2]]
		s3 += x[3] * s8f32[y[3]]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * s8f32[b[i]]
	}
	return (s0 + s1) + (s2 + s3)
}

func dotNormS8(a []float32, b []byte) (dot, sq float32) {
	b = b[:len(a)]
	var s0, s1, s2, s3, n0, n1, n2, n3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		y0, y1, y2, y3 := s8f32[y[0]], s8f32[y[1]], s8f32[y[2]], s8f32[y[3]]
		s0 += x[0] * y0
		s1 += x[1] * y1
		s2 += x[2] * y2
		s3 += x[3] * y3
		n0 += y0 * y0
		n1 += y1 * y1
		n2 += y2 * y2
		n3 += y3 * y3
	}
	for ; i < len(a); i++ {
		yi := s8f32[b[i]]
		s0 += a[i] * yi
		n0 += yi * yi
	}
	return (s0 + s1) + (s2 + s3), (n0 + n1) + (n2 + n3)
}
