package vec

import (
	"fmt"
	"math"
)

// This file is the SQ8 compressed tier: per-dimension symmetric scalar
// quantization of a Matrix into code bytes, the integer kernels over
// those bytes, and the code-row scorer (codeDist) that the resident
// quantized Kernel and the paged DistanceToCodeBytes both run.
//
// A code is one two's-complement byte, exactly the byte a snapshot's
// blocks record carries beside the node's adjacency, so a resident SQ8
// tier and a paged record hold the same bytes and score them through
// the same kernels.
//
// Quantization is symmetric (no zero point): each dimension d gets the
// scale step scales[d] = max_i |row_i[d]| / 127, and a component x is
// stored as the code round(x / scales[d]) in [-127, 127]. Dequantizing
// a code c recovers scales[d]*c, within scales[d]/2 of the original
// component (the property the round-trip tests pin down). A dimension
// that is zero in every row gets scale 0 and code 0 everywhere; the
// query's component is dropped too, which cannot change the ranking
// because a dimension constant across the corpus adds the same amount
// to every distance.
//
// Distance semantics: quantized kernels evaluate distances in CODE
// space — int32-accumulated dot / squared-L2 over the codes, with
// the query quantized once per search by the same per-dimension scales.
// Code space is the image of the corpus under the diagonal map
// x[d] -> x[d]/scales[d], so code-space ranking approximates
// full-precision ranking but is not in the metric's units (per-
// dimension scales cannot be factored out of a sum of per-dimension
// products). Consumers therefore treat quantized distances as ordering
// keys only: graph traversal navigates on them, and the candidate head
// is re-ranked on the full-precision rows (ann.RerankExactStore) before
// results are returned. Integer accumulation is associative, so the
// unrolled kernels agree bitwise with a sequential scalar evaluation —
// the equivalence the kernel tests assert.
//
// int32 accumulation headroom: quantization writes codes in
// [-127, 127], but SQ8FromParts and the paged reader accept any byte,
// so a code may be -128 (0x80). Each product is then at most 128*128
// and each squared difference at most 255^2 = 65025, so sums stay
// within int32 up to ~33k dimensions — far beyond any profile here.

// SQ8 is the per-dimension symmetric scalar quantization of a Matrix:
// code bytes in one flat row-major buffer, the per-dimension scale
// steps, and per-row code-space Euclidean norms (precomputed for the
// Angular kernel, exactly as Matrix precomputes float norms).
//
// An SQ8 is immutable after construction and safe for concurrent
// readers.
type SQ8 struct {
	dim    int
	rows   int
	scales []float32
	codes  []byte
	// norms[i] is the code-space Euclidean norm of row i, computed as
	// sqrt of the exact int32 squared norm.
	norms []float32
}

// QuantizeSQ8 quantizes every row of m. The scales are derived from the
// corpus alone, so quantizing the same matrix always yields identical
// codes (the determinism snapshots rely on).
func QuantizeSQ8(m *Matrix) *SQ8 {
	rows, dim := m.Rows(), m.Dim()
	s := &SQ8{
		dim:    dim,
		rows:   rows,
		scales: make([]float32, dim),
		codes:  make([]byte, rows*dim),
		norms:  make([]float32, rows),
	}
	for i := 0; i < rows; i++ {
		for d, x := range m.Row(i) {
			if a := float32(math.Abs(float64(x))); a > s.scales[d] {
				s.scales[d] = a
			}
		}
	}
	for d := range s.scales {
		s.scales[d] /= 127
	}
	for i := 0; i < rows; i++ {
		row := s.codes[i*dim : (i+1)*dim]
		quantizeInto(s.scales, m.Row(i), row)
		s.norms[i] = codeNorm(row)
	}
	return s
}

// SQ8FromParts reassembles a quantizer from its serialized parts — the
// snapshot warm-start path, whose codes are the blocks records' code
// bytes. The scales and codes are retained, not copied; code-space
// norms are recomputed (exact integer arithmetic, so they cannot drift
// from the values the original quantization had).
func SQ8FromParts(dim, rows int, scales []float32, codes []byte) (*SQ8, error) {
	if dim < 1 || rows < 1 {
		return nil, fmt.Errorf("vec: sq8 %dx%d", rows, dim)
	}
	if len(scales) != dim {
		return nil, fmt.Errorf("vec: sq8 has %d scales for dim %d", len(scales), dim)
	}
	for d, sc := range scales {
		if math.IsNaN(float64(sc)) || math.IsInf(float64(sc), 0) || sc < 0 {
			return nil, fmt.Errorf("vec: sq8 scale %d is %v", d, sc)
		}
	}
	if len(codes) != rows*dim {
		return nil, fmt.Errorf("vec: sq8 has %d codes for %dx%d", len(codes), rows, dim)
	}
	s := &SQ8{dim: dim, rows: rows, scales: scales, codes: codes, norms: make([]float32, rows)}
	for i := 0; i < rows; i++ {
		s.norms[i] = codeNorm(s.Row(i))
	}
	return s, nil
}

// quantizeInto writes round(v[d]/scales[d]) clamped to [-127, 127] into
// dst as a two's-complement byte. A zero scale (all-zero dimension)
// always codes to 0.
func quantizeInto(scales []float32, v Vector, dst []byte) {
	for d, x := range v {
		dst[d] = byte(quantizeComponent(scales[d], x))
	}
}

func quantizeComponent(scale, x float32) int8 {
	if scale == 0 {
		return 0
	}
	c := math.Round(float64(x) / float64(scale))
	if c > 127 {
		c = 127
	} else if c < -127 {
		c = -127
	}
	return int8(c)
}

// codeNorm is the code-space Euclidean norm: sqrt of the exact int32
// squared norm.
func codeNorm(c []byte) float32 {
	return float32(math.Sqrt(float64(dotCodes(c, c))))
}

// Rows returns the number of quantized rows.
func (s *SQ8) Rows() int { return s.rows }

// Dim returns the row dimensionality.
func (s *SQ8) Dim() int { return s.dim }

// Scales returns the per-dimension scale steps. Owned by the quantizer;
// callers must not mutate it.
func (s *SQ8) Scales() []float32 { return s.scales }

// Codes returns the flat row-major code buffer. Owned by the quantizer;
// callers must not mutate it.
func (s *SQ8) Codes() []byte { return s.codes }

// Row returns a view of row i's code bytes aliasing the flat buffer —
// the bytes a blocks record stores for node i. Callers must not mutate
// it.
func (s *SQ8) Row(i int) []byte { return s.codes[i*s.dim : (i+1)*s.dim] }

// Norm returns the precomputed code-space Euclidean norm of row i.
func (s *SQ8) Norm(i int) float32 { return s.norms[i] }

// Dequantize reconstructs row i as scales[d]*code[d] — within
// scales[d]/2 per component of the original row.
func (s *SQ8) Dequantize(i int) Vector {
	out := make(Vector, s.dim)
	for d, c := range s.Row(i) {
		out[d] = s.scales[d] * float32(int8(c))
	}
	return out
}

// Bytes returns the resident footprint of the compressed tier: codes
// plus the scale and norm tables. This is what graph traversal touches
// in quantized mode; the full-precision rows (Matrix.Bytes) are the
// rerank tier, touched only for the candidate head.
func (s *SQ8) Bytes() int64 {
	return int64(len(s.codes)) + 4*int64(len(s.scales)) + 4*int64(len(s.norms))
}

// ---- the code-row scorer and its kernels ----------------------------------

// codeDist is the SQ8 code-row scorer, the one metric switch over code
// rows: the code-space distance from q's codes to row c, whose code
// norm is cn (or unknownNorm). Sums are exact int32 widened to float32
// at the end; Angular normalizes them by the two code norms through
// the same angularFromDot as the float scorer. The query must carry
// codes (PrepareQuantized); callers check the dimension.
func (q *PreparedQuery) codeDist(c []byte, cn float32) float32 {
	switch q.metric {
	case L2:
		return float32(l2sqCodes(q.codes, c))
	case Angular:
		if cn < 0 {
			dot, sq := dotNormCodes(q.codes, c)
			return angularFromDot(float32(dot), q.codeNorm, float32(math.Sqrt(float64(sq))))
		}
		return angularFromDot(float32(dotCodes(q.codes, c)), q.codeNorm, cn)
	case InnerProduct:
		return -float32(dotCodes(q.codes, c))
	}
	panic(fmt.Sprintf("vec: unknown metric %d", q.metric))
}

// The kernels read each byte as int8 and accumulate exactly in four
// int32 partial sums. Integer addition is associative, so the unrolling
// cannot change a result.

func l2sqCodes(a, b []byte) int32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		d0 := int32(int8(x[0])) - int32(int8(y[0]))
		d1 := int32(int8(x[1])) - int32(int8(y[1]))
		d2 := int32(int8(x[2])) - int32(int8(y[2]))
		d3 := int32(int8(x[3])) - int32(int8(y[3]))
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := int32(int8(a[i])) - int32(int8(b[i]))
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

func dotCodes(a, b []byte) int32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += int32(int8(x[0])) * int32(int8(y[0]))
		s1 += int32(int8(x[1])) * int32(int8(y[1]))
		s2 += int32(int8(x[2])) * int32(int8(y[2]))
		s3 += int32(int8(x[3])) * int32(int8(y[3]))
	}
	for ; i < len(a); i++ {
		s0 += int32(int8(a[i])) * int32(int8(b[i]))
	}
	return (s0 + s1) + (s2 + s3)
}

// dotNormCodes is dotCodes(a, b) and dotCodes(b, b) in one pass.
func dotNormCodes(a, b []byte) (dot, sq int32) {
	b = b[:len(a)]
	var s0, s1, s2, s3, n0, n1, n2, n3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		y0, y1, y2, y3 := int32(int8(y[0])), int32(int8(y[1])), int32(int8(y[2])), int32(int8(y[3]))
		s0 += int32(int8(x[0])) * y0
		s1 += int32(int8(x[1])) * y1
		s2 += int32(int8(x[2])) * y2
		s3 += int32(int8(x[3])) * y3
		n0 += y0 * y0
		n1 += y1 * y1
		n2 += y2 * y2
		n3 += y3 * y3
	}
	for ; i < len(a); i++ {
		yi := int32(int8(b[i]))
		s0 += int32(int8(a[i])) * yi
		n0 += yi * yi
	}
	return (s0 + s1) + (s2 + s3), (n0 + n1) + (n2 + n3)
}
