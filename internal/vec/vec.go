// Package vec provides the vector primitives used throughout NDSEARCH:
// element codecs (float32, uint8, int8), distance kernels (squared
// Euclidean, angular/cosine, inner product), and the cycle-cost model the
// SiN MAC groups use when simulating in-flash distance computation.
package vec

import (
	"fmt"
	"math"
)

// Metric identifies a distance function between two feature vectors.
// Its value is the metric byte of a snapshot header.
type Metric uint8

const (
	// L2 is squared Euclidean distance. Smaller is closer.
	L2 Metric = iota
	// Angular is 1 - cosine similarity. Smaller is closer.
	Angular
	// InnerProduct is negated inner product, so that smaller is closer
	// and all metrics sort the same way.
	InnerProduct
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case L2:
		return "l2"
	case Angular:
		return "angular"
	case InnerProduct:
		return "ip"
	default:
		return fmt.Sprintf("metric(%d)", uint8(m))
	}
}

// MetricFromEncoding decodes a snapshot header's metric byte, rejecting
// values that name no metric.
func MetricFromEncoding(bits uint8) (Metric, error) {
	if bits > uint8(InnerProduct) {
		return 0, fmt.Errorf("vec: invalid metric encoding %d", bits)
	}
	return Metric(bits), nil
}

// ElemKind is the storage element type of a dataset's feature vectors.
// sift-1b stores uint8 components, spacev-1b stores int8, the rest float32.
type ElemKind uint8

const (
	// F32 vectors store 4-byte IEEE-754 components.
	F32 ElemKind = iota
	// U8 vectors store 1-byte unsigned components (e.g. SIFT descriptors).
	U8
	// I8 vectors store 1-byte signed components (e.g. SpaceV descriptors).
	I8
)

// String implements fmt.Stringer.
func (k ElemKind) String() string {
	switch k {
	case F32:
		return "f32"
	case U8:
		return "u8"
	case I8:
		return "i8"
	default:
		return fmt.Sprintf("elem(%d)", uint8(k))
	}
}

// Bytes returns the storage size of one component.
func (k ElemKind) Bytes() int {
	if k == F32 {
		return 4
	}
	return 1
}

// Vector is a feature vector. All in-memory computation uses float32
// regardless of the at-rest element kind; the kind only affects storage
// footprint.
type Vector []float32

// Dim returns the dimensionality of the vector.
func (v Vector) Dim() int { return len(v) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit norm. Zero vectors are left as-is.
func (v Vector) Normalize() {
	n := v.Norm()
	if n == 0 {
		return
	}
	inv := float32(1 / n)
	for i := range v {
		v[i] *= inv
	}
}

// L2Squared returns the squared Euclidean distance between a and b.
// It panics if the dimensions differ: mismatched vectors indicate a
// corrupted index and must not be silently tolerated.
func L2Squared(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(a), len(b)))
	}
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AngularDistance returns 1 - cos(a, b). For zero vectors it returns 1
// (maximally distant but finite), keeping candidate lists well ordered.
func AngularDistance(a, b Vector) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(a), len(b)))
	}
	var dot, na, nb float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
		na += float64(a[i]) * float64(a[i])
		nb += float64(b[i]) * float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 1
	}
	cos := dot / (math.Sqrt(na) * math.Sqrt(nb))
	// Clamp against floating point drift so the distance stays in [0, 2].
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return float32(1 - cos)
}

// Distance computes the metric m between a and b.
func Distance(m Metric, a, b Vector) float32 {
	switch m {
	case L2:
		return L2Squared(a, b)
	case Angular:
		return AngularDistance(a, b)
	case InnerProduct:
		return -Dot(a, b)
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", m))
	}
}

// DistanceFunc returns the kernel for metric m, letting hot loops avoid
// the per-call switch.
func DistanceFunc(m Metric) func(a, b Vector) float32 {
	switch m {
	case L2:
		return L2Squared
	case Angular:
		return AngularDistance
	case InnerProduct:
		return func(a, b Vector) float32 { return -Dot(a, b) }
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", m))
	}
}
