package vec

import (
	"fmt"
	"math"
)

// This file is the SQ8 compressed tier: per-dimension symmetric scalar
// quantization of a Matrix into int8 codes, plus the int8 batched
// distance kernels the graph traversals run on in quantized mode.
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
// space — int32-accumulated dot / squared-L2 over the int8 codes, with
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
// int32 accumulation headroom: each product is at most 127*127 = 16129
// (and each squared difference at most 254^2 = 64516), so sums stay
// within int32 up to ~33k dimensions — far beyond any profile here.

// SQ8 is the per-dimension symmetric scalar quantization of a Matrix:
// int8 codes in one flat row-major buffer, the per-dimension scale
// steps, and per-row code-space Euclidean norms (precomputed for the
// Angular kernel, exactly as Matrix precomputes float norms).
//
// An SQ8 is immutable after construction and safe for concurrent
// readers.
type SQ8 struct {
	dim    int
	rows   int
	scales []float32
	codes  []int8
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
		codes:  make([]int8, rows*dim),
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
// snapshot warm-start path. The scales and codes are retained, not
// copied; code-space norms are recomputed (exact integer arithmetic, so
// they cannot drift from the values the original quantization had).
func SQ8FromParts(dim, rows int, scales []float32, codes []int8) (*SQ8, error) {
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
// dst. A zero scale (all-zero dimension) always codes to 0.
func quantizeInto(scales []float32, v Vector, dst []int8) {
	for d, x := range v {
		dst[d] = quantizeComponent(scales[d], x)
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
func codeNorm(c []int8) float32 {
	return float32(math.Sqrt(float64(sqNormI8(c))))
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
func (s *SQ8) Codes() []int8 { return s.codes }

// Row returns a view of row i's codes aliasing the flat buffer. Callers
// must not mutate it.
func (s *SQ8) Row(i int) []int8 { return s.codes[i*s.dim : (i+1)*s.dim] }

// Norm returns the precomputed code-space Euclidean norm of row i.
func (s *SQ8) Norm(i int) float32 { return s.norms[i] }

// QuantizeQuery quantizes a search query with the corpus scales,
// returning its int8 code vector.
func (s *SQ8) QuantizeQuery(q Vector) []int8 {
	if len(q) != s.dim {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q), s.dim))
	}
	out := make([]int8, s.dim)
	quantizeInto(s.scales, q, out)
	return out
}

// Dequantize reconstructs row i as scales[d]*code[d] — within
// scales[d]/2 per component of the original row.
func (s *SQ8) Dequantize(i int) Vector {
	return DequantizeCode(s.scales, s.Row(i))
}

// DequantizeCode reconstructs a code vector under the given scales.
func DequantizeCode(scales []float32, code []int8) Vector {
	out := make(Vector, len(code))
	for d, c := range code {
		out[d] = scales[d] * float32(c)
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

// ---- int8 kernels -------------------------------------------------------

// dotI8 is the 4-way unrolled int8 inner product with exact int32
// accumulation. Integer addition is associative, so the unrolled and
// sequential evaluations agree bitwise.
func dotI8(a, b []int8) int32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// l2sqI8 is the 4-way unrolled int8 squared Euclidean distance with
// exact int32 accumulation.
func l2sqI8(a, b []int8) int32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := int32(a[i]) - int32(b[i])
		d1 := int32(a[i+1]) - int32(b[i+1])
		d2 := int32(a[i+2]) - int32(b[i+2])
		d3 := int32(a[i+3]) - int32(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := int32(a[i]) - int32(b[i])
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// sqNormI8 is the exact int32 squared Euclidean norm of a code vector.
func sqNormI8(a []int8) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += int32(a[i]) * int32(a[i])
		s1 += int32(a[i+1]) * int32(a[i+1])
		s2 += int32(a[i+2]) * int32(a[i+2])
		s3 += int32(a[i+3]) * int32(a[i+3])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(a[i])
	}
	return (s0 + s1) + (s2 + s3)
}
