package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{L2: "l2", Angular: "angular", InnerProduct: "ip"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Metric(%d).String() = %q, want %q", m, got, want)
		}
	}
	if got := Metric(9).String(); got != "metric(9)" {
		t.Errorf("unknown metric string = %q", got)
	}
}

func TestMetricEncodeRoundTrip(t *testing.T) {
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		got, err := MetricFromEncoding(uint8(m))
		if err != nil {
			t.Fatalf("MetricFromEncoding(%v): %v", m, err)
		}
		if got != m {
			t.Errorf("round trip %v -> %v", m, got)
		}
	}
	if _, err := MetricFromEncoding(3); err == nil {
		t.Error("MetricFromEncoding(3) should fail: only 3 metrics defined")
	}
}

func TestElemKind(t *testing.T) {
	if F32.Bytes() != 4 || U8.Bytes() != 1 || I8.Bytes() != 1 {
		t.Errorf("unexpected element sizes: %d %d %d", F32.Bytes(), U8.Bytes(), I8.Bytes())
	}
	if F32.String() != "f32" || U8.String() != "u8" || I8.String() != "i8" {
		t.Error("unexpected element kind strings")
	}
}

func TestL2Squared(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 6, 3}
	if got := L2Squared(a, b); got != 25 {
		t.Errorf("L2Squared = %v, want 25", got)
	}
	if got := L2Squared(a, a); got != 0 {
		t.Errorf("L2Squared(a,a) = %v, want 0", got)
	}
}

func TestL2DimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dim mismatch")
		}
	}()
	L2Squared(Vector{1}, Vector{1, 2})
}

func TestDot(t *testing.T) {
	if got := Dot(Vector{1, 2, 3}, Vector{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestAngularDistance(t *testing.T) {
	a := Vector{1, 0}
	b := Vector{0, 1}
	if got := AngularDistance(a, b); !almostEqual(float64(got), 1, 1e-6) {
		t.Errorf("orthogonal angular = %v, want 1", got)
	}
	if got := AngularDistance(a, a); !almostEqual(float64(got), 0, 1e-6) {
		t.Errorf("identical angular = %v, want 0", got)
	}
	opp := Vector{-1, 0}
	if got := AngularDistance(a, opp); !almostEqual(float64(got), 2, 1e-6) {
		t.Errorf("opposite angular = %v, want 2", got)
	}
	zero := Vector{0, 0}
	if got := AngularDistance(a, zero); got != 1 {
		t.Errorf("zero-vector angular = %v, want 1", got)
	}
}

func TestDistanceDispatch(t *testing.T) {
	a := Vector{1, 2}
	b := Vector{3, 4}
	if Distance(L2, a, b) != L2Squared(a, b) {
		t.Error("Distance(L2) mismatch")
	}
	if Distance(Angular, a, b) != AngularDistance(a, b) {
		t.Error("Distance(Angular) mismatch")
	}
	if Distance(InnerProduct, a, b) != -Dot(a, b) {
		t.Error("Distance(InnerProduct) mismatch")
	}
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		f := DistanceFunc(m)
		if f(a, b) != Distance(m, a, b) {
			t.Errorf("DistanceFunc(%v) disagrees with Distance", m)
		}
	}
}

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if !almostEqual(v.Norm(), 1, 1e-6) {
		t.Errorf("norm after normalize = %v", v.Norm())
	}
	z := Vector{0, 0}
	z.Normalize() // must not divide by zero
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector changed by Normalize")
	}
}

func TestClone(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []ElemKind{F32, U8, I8} {
		v := make(Vector, 17)
		for i := range v {
			switch k {
			case F32:
				v[i] = rng.Float32()*200 - 100
			case U8:
				v[i] = float32(rng.Intn(256))
			case I8:
				v[i] = float32(rng.Intn(256) - 128)
			}
		}
		buf := make([]byte, StoredBytes(k, len(v)))
		n, err := Encode(k, v, buf)
		if err != nil {
			t.Fatalf("Encode(%v): %v", k, err)
		}
		if n != len(buf) {
			t.Errorf("Encode(%v) wrote %d bytes, want %d", k, n, len(buf))
		}
		got, err := Decode(k, len(v), buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", k, err)
		}
		for i := range v {
			if got[i] != v[i] {
				t.Fatalf("round trip %v: component %d = %v, want %v", k, i, got[i], v[i])
			}
		}
	}
}

func TestEncodeShortBuffer(t *testing.T) {
	if _, err := Encode(F32, Vector{1, 2}, make([]byte, 7)); err == nil {
		t.Error("Encode should fail with a short buffer")
	}
	if _, err := Decode(F32, 2, make([]byte, 7)); err == nil {
		t.Error("Decode should fail with a short buffer")
	}
}

func TestEncodeClamps(t *testing.T) {
	buf := make([]byte, 2)
	if _, err := Encode(U8, Vector{-5, 300}, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 || buf[1] != 255 {
		t.Errorf("U8 clamp got [%d %d], want [0 255]", buf[0], buf[1])
	}
	if _, err := Encode(I8, Vector{-200, 200}, buf); err != nil {
		t.Fatal(err)
	}
	if int8(buf[0]) != -128 || int8(buf[1]) != 127 {
		t.Errorf("I8 clamp got [%d %d], want [-128 127]", int8(buf[0]), int8(buf[1]))
	}
}

func TestQuantize(t *testing.T) {
	v := Vector{-3.7, 128.4, 260}
	q := Quantize(U8, v)
	if q[0] != 0 || q[1] != 128 || q[2] != 255 {
		t.Errorf("Quantize(U8) = %v", q)
	}
	qf := Quantize(F32, v)
	for i := range v {
		if qf[i] != v[i] {
			t.Error("Quantize(F32) must be identity")
		}
	}
	qf[0] = 99
	if v[0] == 99 {
		t.Error("Quantize must not alias input")
	}
}

// Property: L2 is symmetric, non-negative, and zero on identical inputs.
func TestL2Properties(t *testing.T) {
	f := func(xs, ys [8]float32) bool {
		a, b := Vector(xs[:]), Vector(ys[:])
		d := L2Squared(a, b)
		return d >= 0 && d == L2Squared(b, a) && L2Squared(a, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: encode/decode is lossless for in-range U8 grids.
func TestU8CodecProperty(t *testing.T) {
	f := func(raw [16]uint8) bool {
		v := make(Vector, len(raw))
		for i, x := range raw {
			v[i] = float32(x)
		}
		buf := make([]byte, StoredBytes(U8, len(v)))
		if _, err := Encode(U8, v, buf); err != nil {
			return false
		}
		got, err := Decode(U8, len(v), buf)
		if err != nil {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Unrepresentable is the Encode/Decode round trip, component by
// component: it flags exactly the first component whose bits the trip
// changes, for every element kind, on grid points, fractions, values
// past either clamp and negative zero.
func TestUnrepresentableIsTheRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	values := []float32{0, float32(math.Copysign(0, -1)), 1, 127, 128, 255, 256, -1, -128, -129, 0.1, 254.5, -0.5, 1e9}
	for i := 0; i < 200; i++ {
		values = append(values, float32(rng.Intn(600)-300), float32(rng.NormFloat64()*100))
	}
	for _, k := range []ElemKind{F32, U8, I8} {
		for _, x := range values {
			v := Vector{7, x, x}
			buf := make([]byte, StoredBytes(k, len(v)))
			if _, err := Encode(k, v, buf); err != nil {
				t.Fatal(err)
			}
			back, err := Decode(k, len(v), buf)
			if err != nil {
				t.Fatal(err)
			}
			want := -1
			for j := range v {
				if math.Float32bits(back[j]) != math.Float32bits(v[j]) {
					want = j
					break
				}
			}
			if got := Unrepresentable(k, v); got != want {
				t.Fatalf("%v: Unrepresentable(%v) = %d, round trip says %d", k, v, got, want)
			}
		}
	}
}

// Property: angular distance stays within [0, 2] and is symmetric.
func TestAngularProperties(t *testing.T) {
	f := func(xs, ys [6]float32) bool {
		a, b := Vector(xs[:]), Vector(ys[:])
		for i := range a { // keep values finite and modest
			if math.IsNaN(float64(a[i])) || math.IsInf(float64(a[i]), 0) {
				a[i] = 1
			}
			if math.IsNaN(float64(b[i])) || math.IsInf(float64(b[i]), 0) {
				b[i] = 1
			}
		}
		d := AngularDistance(a, b)
		return d >= 0 && d <= 2.0001 && almostEqual(float64(d), float64(AngularDistance(b, a)), 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMACModel(t *testing.T) {
	m := DefaultMACModel()
	if got := m.CyclesPerDistance(128); got != 64+m.PipelineFill {
		t.Errorf("CyclesPerDistance(128) = %d, want %d", got, 64+m.PipelineFill)
	}
	if got := m.CyclesPerDistance(0); got != m.PipelineFill {
		t.Errorf("CyclesPerDistance(0) = %d", got)
	}
	if got := m.CyclesPerDistance(3); got != 2+m.PipelineFill {
		t.Errorf("CyclesPerDistance(3) = %d, want %d (ceil division)", got, 2+m.PipelineFill)
	}
	s := m.SecondsPerDistance(128)
	want := float64(64+m.PipelineFill) / 800e6
	if !almostEqual(s, want, 1e-12) {
		t.Errorf("SecondsPerDistance = %v, want %v", s, want)
	}
	degenerate := MACModel{ClockHz: 1e9, MACsPerGroup: 0, PipelineFill: 1}
	if got := degenerate.CyclesPerDistance(4); got != 5 {
		t.Errorf("lanes<1 should fall back to 1 lane, got %d cycles", got)
	}
}
