package vec

import (
	"fmt"
	"math"
)

// Matrix is a contiguous row-major corpus store: all vectors live in one
// flat []float32 backing array, with the Euclidean norm of every row
// precomputed at construction. It is the at-rest layout the paper's
// in-flash MAC groups assume (vectors streamed row by row from a
// page), and the store every Kernel distance evaluation reads from:
// row views are cache-friendly slices of the flat buffer, and the
// precomputed norms let the Angular kernel skip the per-comparison
// norm recomputation the scalar path pays.
//
// A Matrix is immutable after construction and safe for concurrent
// readers.
type Matrix struct {
	buf  []float32
	dim  int
	rows int
	// norms[i] is the Euclidean norm of row i, computed with the same
	// unrolled accumulation the kernels use so precomputed and
	// on-the-fly norms are bit-identical. The Angular scorer reads it.
	norms []float32
	// byteValued is the row side of Kernel.DistsTo's order-free gate:
	// every component of every row an integer in [0, 255] and dim ≤
	// maxByteValuedDim.
	byteValued bool
	// sq8 is the optional compressed tier: per-dimension SQ8 codes that
	// quantized kernels traverse instead of the float32 rows. Nil unless
	// EnableSQ8 or AttachSQ8 ran; both are construction-time operations —
	// attach the tier before the matrix is shared across goroutines.
	sq8 *SQ8
}

// NewMatrix copies data into a contiguous row-major store and
// precomputes per-row norms. All rows must share one dimensionality; a
// mismatch panics, as it indicates a corrupted corpus. The input slices
// are not retained.
func NewMatrix(data []Vector) *Matrix {
	m := &Matrix{rows: len(data)}
	if len(data) == 0 {
		return m
	}
	m.dim = len(data[0])
	m.buf = make([]float32, m.rows*m.dim)
	m.norms = make([]float32, m.rows)
	m.byteValued = m.dim <= maxByteValuedDim
	for i, v := range data {
		if len(v) != m.dim {
			panic(fmt.Sprintf("vec: matrix row %d dim %d != %d", i, len(v), m.dim))
		}
		row := m.buf[i*m.dim : (i+1)*m.dim]
		copy(row, v)
		m.norms[i] = float32(math.Sqrt(float64(squaredNorm(row))))
		m.byteValued = m.byteValued && byteValued(row)
	}
	return m
}

// Rows returns the number of stored vectors.
func (m *Matrix) Rows() int { return m.rows }

// Dim returns the row dimensionality (0 for an empty matrix).
func (m *Matrix) Dim() int { return m.dim }

// Row returns a view of row i aliasing the flat buffer. Callers must
// not mutate it.
func (m *Matrix) Row(i int) Vector {
	return m.buf[i*m.dim : (i+1)*m.dim]
}

// Norm returns the precomputed Euclidean norm of row i.
func (m *Matrix) Norm(i int) float32 { return m.norms[i] }

// EnableSQ8 quantizes the rows into the SQ8 compressed tier and caches
// it on the matrix. Idempotent: a tier already present (quantized or
// attached) is returned as-is. Like NewMatrix, this is a construction-
// time operation — call it before the matrix is shared.
func (m *Matrix) EnableSQ8() *SQ8 {
	if m.sq8 == nil {
		m.sq8 = QuantizeSQ8(m)
	}
	return m.sq8
}

// AttachSQ8 installs a previously serialized compressed tier — the
// snapshot warm-start path, which must reuse the saved scales and codes
// verbatim rather than requantize (byte-identical resave depends on
// it). The tier's shape must match the matrix.
func (m *Matrix) AttachSQ8(s *SQ8) error {
	if s.dim != m.dim || s.rows != m.rows {
		return fmt.Errorf("vec: sq8 shape %dx%d does not match matrix %dx%d",
			s.rows, s.dim, m.rows, m.dim)
	}
	m.sq8 = s
	return nil
}

// SQ8 returns the compressed tier, or nil if none was enabled.
func (m *Matrix) SQ8() *SQ8 { return m.sq8 }
