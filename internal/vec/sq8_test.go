package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Property: the quantize→dequantize round trip bounds per-component
// error by half the dimension's scale step (round-to-nearest of
// x/scale, so |x - scale*code| ≤ scale/2 for corpus rows — queries can
// additionally clamp). Exercised over adversarial corpora: all-zero
// rows, constant rows, extreme-magnitude components, negative-heavy
// rows, and dims that are not a multiple of the 4-way unroll width.
func TestSQ8RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpora := map[string][]Vector{
		"random-d7": {
			randVec(rng, 7), randVec(rng, 7), randVec(rng, 7), randVec(rng, 7),
		},
		"all-zero-rows-d5": {
			make(Vector, 5), make(Vector, 5), randVec(rng, 5),
		},
		"constant-rows-d3": {
			{2.5, 2.5, 2.5}, {2.5, 2.5, 2.5}, {-2.5, -2.5, -2.5},
		},
		"extremes-d6": {
			{3.4e38, -3.4e38, 1e-30, -1e-30, 0, 1},
			{1e10, 1e-10, -1e10, -1e-10, 3.4e38, -1},
		},
		"negative-heavy-d9": {
			{-1, -2, -3, -4, -5, -6, -7, -8, -9},
			{-9, -8, -7, -6, -5, -4, -3, -2, -1},
			{1, -1, 1, -1, 1, -1, 1, -1, 1},
		},
		"single-row-d1": {{0.3}},
	}
	for name, data := range corpora {
		mat := NewMatrix(data)
		s := QuantizeSQ8(mat)
		if s.Rows() != mat.Rows() || s.Dim() != mat.Dim() {
			t.Fatalf("%s: sq8 shape %dx%d, want %dx%d", name, s.Rows(), s.Dim(), mat.Rows(), mat.Dim())
		}
		for i, v := range data {
			rec := s.Dequantize(i)
			for d, x := range v {
				step := s.Scales()[d]
				if step < 0 || math.IsNaN(float64(step)) || math.IsInf(float64(step), 0) {
					t.Fatalf("%s: scale[%d] = %v", name, d, step)
				}
				// A zero step means the dimension is zero in every row,
				// so reconstruction must be exact.
				bound := float64(step) / 2
				if err := math.Abs(float64(x) - float64(rec[d])); err > bound {
					t.Fatalf("%s: row %d dim %d: |%v - %v| = %v > step/2 = %v",
						name, i, d, x, rec[d], err, bound)
				}
			}
		}
	}
}

// Corpus rows never clamp (the scale is derived from the corpus max),
// but out-of-range queries must: codes stay in [-127, 127] and the
// round trip degrades gracefully instead of wrapping.
func TestSQ8QueryClamps(t *testing.T) {
	mat := NewMatrix([]Vector{{1, -1, 0.5}, {0.5, 0.25, -1}})
	s := QuantizeSQ8(mat)
	q := PrepareQuantized(L2, Vector{100, -100, 100}, s.Scales())
	for d, c := range q.Codes() {
		if c := int8(c); c != 127 && c != -127 {
			t.Fatalf("out-of-range query dim %d coded to %d, want ±127", d, c)
		}
	}
	// Zero-scale dimensions drop the query component entirely.
	zmat := NewMatrix([]Vector{{0, 1}, {0, 2}})
	zs := QuantizeSQ8(zmat)
	zq := PrepareQuantized(L2, Vector{5, 1}, zs.Scales())
	if got := zq.Codes()[0]; got != 0 {
		t.Fatalf("zero-scale dimension coded query to %d, want 0", got)
	}
}

// Quantizing the same matrix twice yields identical scales and codes —
// the determinism snapshot byte-identity relies on.
func TestSQ8Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := make([]Vector, 16)
	for i := range data {
		data[i] = randVec(rng, 33)
	}
	a, b := QuantizeSQ8(NewMatrix(data)), QuantizeSQ8(NewMatrix(data))
	for d := range a.Scales() {
		if a.Scales()[d] != b.Scales()[d] {
			t.Fatalf("scale %d differs: %v vs %v", d, a.Scales()[d], b.Scales()[d])
		}
	}
	for i := range a.Codes() {
		if a.Codes()[i] != b.Codes()[i] {
			t.Fatalf("code %d differs: %d vs %d", i, a.Codes()[i], b.Codes()[i])
		}
	}
}

func TestSQ8FromPartsValidates(t *testing.T) {
	good := QuantizeSQ8(NewMatrix([]Vector{{1, 2}, {3, 4}}))
	if _, err := SQ8FromParts(2, 2, good.Scales(), good.Codes()); err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	cases := map[string]func() error{
		"zero-dim": func() error {
			_, err := SQ8FromParts(0, 2, nil, nil)
			return err
		},
		"scale-count": func() error {
			_, err := SQ8FromParts(2, 2, []float32{1}, good.Codes())
			return err
		},
		"nan-scale": func() error {
			_, err := SQ8FromParts(2, 2, []float32{1, float32(math.NaN())}, good.Codes())
			return err
		},
		"inf-scale": func() error {
			_, err := SQ8FromParts(2, 2, []float32{1, float32(math.Inf(1))}, good.Codes())
			return err
		},
		"negative-scale": func() error {
			_, err := SQ8FromParts(2, 2, []float32{1, -1}, good.Codes())
			return err
		},
		"code-count": func() error {
			_, err := SQ8FromParts(2, 2, good.Scales(), good.Codes()[:3])
			return err
		},
	}
	for name, f := range cases {
		if f() == nil {
			t.Fatalf("%s: invalid parts accepted", name)
		}
	}
	// Reassembled from valid parts, the tier matches the original
	// exactly, including the recomputed norms.
	re, err := SQ8FromParts(2, 2, good.Scales(), good.Codes())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < re.Rows(); i++ {
		if re.Norm(i) != good.Norm(i) {
			t.Fatalf("row %d norm %v != %v after FromParts", i, re.Norm(i), good.Norm(i))
		}
	}
}

// scalarCodeDist is the sequential scalar reference for code-space
// distances: widen each code byte, read as int8, to float32 and
// accumulate in float32 exactly as a naive loop would. For the dims under test every partial
// sum is an integer below 2^24 (dim · 254² < 2^24 for dim ≤ 128 for L2,
// dim · 127² for dot), so float32 addition is exact integer arithmetic
// and the unrolled int32 kernels must agree BITWISE, not merely within
// tolerance. Angular mirrors the kernel's angularFromDot pipeline on
// those exact sums.
func scalarCodeDist(m Metric, a, b []byte, na, nb float32) float32 {
	var dot, l2 float32
	for i := range a {
		fa, fb := float32(int8(a[i])), float32(int8(b[i]))
		dot += fa * fb
		l2 += (fa - fb) * (fa - fb)
	}
	switch m {
	case L2:
		return l2
	case Angular:
		return angularFromDot(dot, na, nb)
	case InnerProduct:
		return -dot
	default:
		panic("unknown metric")
	}
}

// Equivalence: every quantized kernel entry point agrees bitwise with
// the scalar reference over the widened codes, table-driven over all
// metrics × dims {1, 7, 96, 128}.
func TestQuantizedKernelBitwiseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, dim := range []int{1, 7, 96, 128} {
			rows := 24
			data := make([]Vector, rows)
			for i := range data {
				data[i] = randVec(rng, dim)
			}
			data[5] = make(Vector, dim) // Angular zero-norm branch
			mat := NewMatrix(data)
			mat.EnableSQ8()
			k := NewQuantizedKernel(m, mat)
			s := mat.SQ8()

			query := randVec(rng, dim)
			q := k.Prepare(query)
			if q.Codes() == nil {
				t.Fatalf("%v d%d: quantized Prepare produced no codes", m, dim)
			}
			qn := codeNorm(q.Codes())

			rowIDs := make([]uint32, rows)
			for i := range rowIDs {
				rowIDs[i] = uint32(i)
			}
			batch := make([]float32, rows)
			k.DistsTo(q, rowIDs, batch)

			for i := 0; i < rows; i++ {
				want := scalarCodeDist(m, q.Codes(), s.Row(i), qn, s.Norm(i))
				for name, got := range map[string]float32{
					"DistTo":  k.DistTo(q, i),
					"DistsTo": batch[i],
				} {
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%v d%d row %d %s: %v (bits %x) != scalar %v (bits %x)",
							m, dim, i, name, got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
				for j := 0; j < rows; j++ {
					want := scalarCodeDist(m, s.Row(i), s.Row(j), s.Norm(i), s.Norm(j))
					if got := k.DistRows(i, j); math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%v d%d DistRows(%d,%d): %v != scalar %v", m, dim, i, j, got, want)
					}
				}
			}
		}
	}
}

// The compressed tier must be at least 3x smaller than the float rows
// it stands in for — the acceptance floor for the quantized mode.
func TestSQ8BytesAtLeast3xSmaller(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, dim := range []int{32, 96, 128} {
		data := make([]Vector, 256)
		for i := range data {
			data[i] = randVec(rng, dim)
		}
		mat := NewMatrix(data)
		s := mat.EnableSQ8()
		floatBytes := mat.Rows() * mat.Dim() * 4
		if ratio := float64(floatBytes) / float64(s.Bytes()); ratio < 3 {
			t.Fatalf("d%d: float/sq8 byte ratio %.2f < 3 (%d vs %d bytes)",
				dim, ratio, floatBytes, s.Bytes())
		}
	}
}

func TestMatrixAttachSQ8(t *testing.T) {
	mat := NewMatrix([]Vector{{1, 2}, {3, 4}})
	other := QuantizeSQ8(NewMatrix([]Vector{{1, 2, 3}}))
	if err := mat.AttachSQ8(other); err == nil {
		t.Fatal("shape-mismatched tier attached")
	}
	s := QuantizeSQ8(mat)
	if err := mat.AttachSQ8(s); err != nil {
		t.Fatal(err)
	}
	if mat.SQ8() != s {
		t.Fatal("attached tier not returned by SQ8()")
	}
	// EnableSQ8 is idempotent and must not requantize over an attached tier.
	if mat.EnableSQ8() != s {
		t.Fatal("EnableSQ8 replaced an attached tier")
	}
}
