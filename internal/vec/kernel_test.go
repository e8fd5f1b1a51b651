package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, dim int) Vector {
	v := make(Vector, dim)
	for i := range v {
		v[i] = rng.Float32()*2 - 1
	}
	return v
}

// close1e5 reports whether kernel and scalar distances agree within
// 1e-5 relative tolerance (absolute near zero).
func close1e5(a, b float32) bool {
	diff := math.Abs(float64(a) - float64(b))
	scale := math.Max(1, math.Max(math.Abs(float64(a)), math.Abs(float64(b))))
	return diff <= 1e-5*scale
}

// Property: every kernel entry point — the matrix-free PreparedQuery
// path, DistTo, DistsTo, and DistRows — agrees with the
// scalar vec.Distance reference within 1e-5 relative tolerance, across
// all three metrics, random dims (including non-multiples of the 4-way
// unroll width), and zero vectors.
func TestKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64, 100, 128} {
			rows := 20
			data := make([]Vector, rows)
			for i := range data {
				data[i] = randVec(rng, dim)
			}
			// Zero vectors exercise the Angular zero-norm branch.
			data[3] = make(Vector, dim)
			mat := NewMatrix(data)
			k := NewKernel(m, mat)
			queries := []Vector{randVec(rng, dim), make(Vector, dim)}
			for _, query := range queries {
				q := k.Prepare(query)
				rowIDs := make([]uint32, rows)
				for i := range rowIDs {
					rowIDs[i] = uint32(i)
				}
				batch := make([]float32, rows)
				k.DistsTo(q, rowIDs, batch)
				for i, v := range data {
					want := Distance(m, query, v)
					for name, got := range map[string]float32{
						"PreparedQuery.DistanceTo": q.DistanceTo(v),
						"Kernel.DistTo":            k.DistTo(q, i),
						"Kernel.DistsTo":           batch[i],
					} {
						if !close1e5(got, want) {
							t.Fatalf("%v dim=%d row=%d %s = %v, scalar = %v",
								m, dim, i, name, got, want)
						}
					}
				}
				// DistRows against scalar row-row distances.
				for i := 0; i < rows; i++ {
					want := Distance(m, data[0], data[i])
					if got := k.DistRows(0, i); !close1e5(got, want) {
						t.Fatalf("%v dim=%d DistRows(0,%d) = %v, scalar = %v", m, dim, i, got, want)
					}
				}
			}
		}
	}
}

// The precomputed-norm Angular path must be bit-identical to the
// on-the-fly path: Matrix construction and PreparedQuery.DistanceTo use
// the same unrolled norm accumulation, so precomputation introduces
// zero error. Asserted exactly (==, not tolerance) on normalized data,
// where the norms are all ~1 and any drift would surface directly in
// the cosine.
func TestAngularPrecomputedNormExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{3, 8, 100, 128} {
		data := make([]Vector, 32)
		for i := range data {
			data[i] = randVec(rng, dim)
			data[i].Normalize()
		}
		k := NewKernel(Angular, NewMatrix(data))
		for trial := 0; trial < 8; trial++ {
			query := randVec(rng, dim)
			query.Normalize()
			q := k.Prepare(query)
			for i, v := range data {
				table := k.DistTo(q, i)
				fly := q.DistanceTo(v)
				if table != fly {
					t.Fatalf("dim=%d row=%d: precomputed-norm %v != on-the-fly %v", dim, i, table, fly)
				}
			}
		}
	}
}

// Matrix invariants: contiguous rows round-trip, norms match the rows.
func TestMatrixStoreAndNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]Vector, 10)
	for i := range data {
		data[i] = randVec(rng, 17)
	}
	m := NewMatrix(data)
	if m.Rows() != 10 || m.Dim() != 17 {
		t.Fatalf("matrix shape %dx%d, want 10x17", m.Rows(), m.Dim())
	}
	for i, v := range data {
		row := m.Row(i)
		for d := range v {
			if row[d] != v[d] {
				t.Fatalf("row %d component %d: %v != %v", i, d, row[d], v[d])
			}
		}
		if got, want := float64(m.Norm(i)), v.Norm(); math.Abs(got-want) > 1e-5*math.Max(1, want) {
			t.Fatalf("row %d norm %v, want %v", i, got, want)
		}
	}
	empty := NewMatrix(nil)
	if empty.Rows() != 0 || empty.Dim() != 0 {
		t.Fatalf("empty matrix not empty: %d rows, dim %d", empty.Rows(), empty.Dim())
	}
}

// Dimension mismatches indicate a corrupted index and must panic, same
// as the scalar path.
func TestKernelDimMismatchPanics(t *testing.T) {
	k := NewKernel(L2, NewMatrix([]Vector{{1, 2, 3}}))
	q := k.Prepare(Vector{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("DistTo with mismatched dims did not panic")
		}
	}()
	k.DistTo(q, 0)
}

// asmDraws are the value distributions the assembly oracle draws rows
// and queries from: all zero, normal × 37, the full u8 range, and
// magnitudes whose differences and squares overflow to ±Inf.
var asmDraws = []struct {
	name string
	draw func(rng *rand.Rand) float32
}{
	{"zero", func(*rand.Rand) float32 { return 0 }},
	{"normal", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 37) }},
	{"u8", func(rng *rand.Rand) float32 { return float32(rng.Intn(256)) }},
	{"huge", func(rng *rand.Rand) float32 {
		x := float32(math.Pow(10, 19+19*rng.Float64()))
		if rng.Intn(2) == 0 {
			x = -x
		}
		return x
	}},
}

// The L2 entries (AVX2 assembly on amd64 CPUs that have it) are their
// Go bodies bit for bit: l2sqF32x1/l2sqF32x4 against l2sq4,
// l2sqU8x1/l2sqU8x4 against l2sqU8, and the batched callers built on
// them (Kernel.DistsTo, PreparedQuery.DistancesToStored) at
// every batch length 0–9, so each remainder mod 4 is hit. The dims
// cover every remainder mod 8 of the 8-wide step. U8 rows sit at odd
// byte offsets inside a page-sized buffer, as records in a cache page
// do. The order-free FMA entry l2sqF32x4FMA is held to l2sq4 where
// its gate admits the operands (zero and u8 draws, dim ≤ 258), and
// DistsTo takes it there. Without AVX2 the entries are the Go bodies
// themselves, so only the batched callers are checked; the log line
// says which ran (CI requires avx2=true and fma=true, so the assembly
// oracle cannot be skipped silently).
func TestAsmKernelsMatchGeneric(t *testing.T) {
	t.Logf("avx2=%v fma=%v", useAVX2, useFMA)
	isByteDraw := func(name string) bool { return name == "zero" || name == "u8" }
	rng := rand.New(rand.NewSource(29))
	same := func(t *testing.T, what string, got, want float32) {
		t.Helper()
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: got %v (%08x), Go body %v (%08x)", what, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 100, 127, 128, 131, 960} {
		for _, qd := range asmDraws {
			for _, rd := range asmDraws {
				t.Run(fmt.Sprintf("d%d/q=%s/rows=%s", dim, qd.name, rd.name), func(t *testing.T) {
					q := make(Vector, dim)
					for i := range q {
						q[i] = qd.draw(rng)
					}
					const maxRows = 9
					rows := make([]Vector, maxRows)
					for r := range rows {
						rows[r] = make(Vector, dim)
						for i := range rows[r] {
							rows[r][i] = rd.draw(rng)
						}
					}
					// U8 rows (all zero, or over the full byte range),
					// each at an odd offset in page-sized memory.
					stride := (dim | 1) + 1
					page := make([]byte, max(4096, (1+maxRows*stride+4095)/4096*4096))
					bytesRows := make([][]byte, maxRows)
					for r := range bytesRows {
						b := page[1+r*stride : 1+r*stride+dim]
						if rd.name != "zero" {
							for i := range b {
								b[i] = byte(rng.Intn(256))
							}
						}
						bytesRows[r] = b
					}
					wantF := make([]float32, maxRows)
					wantU := make([]float32, maxRows)
					for r := 0; r < maxRows; r++ {
						wantF[r] = l2sq4(q, rows[r])
						wantU[r] = l2sqU8(q, bytesRows[r])
						if useAVX2 {
							same(t, fmt.Sprintf("l2sqF32x1 row %d", r), l2sqF32x1(q, rows[r]), wantF[r])
							same(t, fmt.Sprintf("l2sqU8x1 row %d", r), l2sqU8x1(q, bytesRows[r]), wantU[r])
						}
					}
					for r := 0; useAVX2 && r+4 <= maxRows; r++ {
						var f, u [4]float32
						f[0], f[1], f[2], f[3] = l2sqF32x4(q, rows[r], rows[r+1], rows[r+2], rows[r+3])
						u[0], u[1], u[2], u[3] = l2sqU8x4(q, bytesRows[r], bytesRows[r+1], bytesRows[r+2], bytesRows[r+3])
						for j := range f {
							same(t, fmt.Sprintf("l2sqF32x4 row %d", r+j), f[j], wantF[r+j])
							same(t, fmt.Sprintf("l2sqU8x4 row %d", r+j), u[j], wantU[r+j])
						}
						if useFMA && dim <= maxByteValuedDim && isByteDraw(qd.name) && isByteDraw(rd.name) {
							f[0], f[1], f[2], f[3] = l2sqF32x4FMA(q, rows[r], rows[r+1], rows[r+2], rows[r+3])
							for j := range f {
								same(t, fmt.Sprintf("l2sqF32x4FMA row %d", r+j), f[j], wantF[r+j])
							}
						}
					}

					k := NewKernel(L2, NewMatrix(rows))
					pq := k.Prepare(q)
					for n := 0; n <= maxRows; n++ {
						ids := make([]uint32, n)
						srcs := make([][]byte, n)
						for i := range ids {
							ids[i] = uint32(rng.Intn(maxRows))
							srcs[i] = bytesRows[ids[i]]
						}
						out := make([]float32, n)
						k.DistsTo(pq, ids, out)
						for i, id := range ids {
							same(t, fmt.Sprintf("DistsTo n=%d [%d]", n, i), out[i], wantF[id])
						}
						pq.DistancesToStored(U8, srcs, out)
						for i, id := range ids {
							same(t, fmt.Sprintf("DistancesToStored n=%d [%d]", n, i), out[i], wantU[id])
						}
					}
				})
			}
		}
	}
}

// DistancesToFlat is DistanceTo bit for bit, row by row, under every
// metric, at every row count 0–9 (each remainder of the four-row L2
// loop) and at dims on both sides of the unroll width.
func TestDistancesToFlatMatchesDistanceTo(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, dim := range []int{1, 3, 5, 127, 128, 131} {
			for _, d := range asmDraws {
				q := make(Vector, dim)
				for i := range q {
					q[i] = d.draw(rng)
				}
				pq := PrepareQuery(m, q)
				for n := 0; n <= 9; n++ {
					flat := make([]float32, n*dim)
					for i := range flat {
						flat[i] = d.draw(rng)
					}
					out := make([]float32, n)
					pq.DistancesToFlat(flat, out)
					for i := range out {
						want := pq.DistanceTo(flat[i*dim : (i+1)*dim])
						if math.Float32bits(out[i]) != math.Float32bits(want) {
							t.Fatalf("%v d%d %s n=%d row %d: got %v (%08x), DistanceTo %v (%08x)",
								m, dim, d.name, n, i, out[i], math.Float32bits(out[i]), want, math.Float32bits(want))
						}
					}
				}
			}
		}
	}
}

// A flat buffer that is not rows × dim long is a caller bug and panics
// rather than scoring a torn row.
func TestDistancesToFlatLengthPanics(t *testing.T) {
	pq := PrepareQuery(L2, Vector{1, 2, 3})
	for _, n := range []int{2, 4, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("buffer of %d floats for 2 rows × dim 3 did not panic", n)
				}
			}()
			pq.DistancesToFlat(make([]float32, n), make([]float32, 2))
		}()
	}
}

// byteRows returns n rows of dim components drawn by draw.
func byteRows(n, dim int, draw func() float32) []Vector {
	rows := make([]Vector, n)
	for r := range rows {
		rows[r] = make(Vector, dim)
		for i := range rows[r] {
			rows[r][i] = draw()
		}
	}
	return rows
}

// Property: on byte-valued operands the order-free body is l2sq4 bit
// for bit, at every dim from 16 to the gate's 258 and at DistsTo batch
// lengths 0–9 (each padded tail), including the 2²⁴ edge: dim 258
// with an all-0 query against all-255 rows, and the reverse, whose
// distance 258·255² is the largest the gate admits.
func TestOrderFreeL2MatchesL2sq4(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	same := func(t *testing.T, what string, got, want float32) {
		t.Helper()
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: got %v (%08x), l2sq4 %v (%08x)", what, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	u8 := func() float32 { return float32(rng.Intn(256)) }
	for dim := 16; dim <= maxByteValuedDim; dim++ {
		rows := byteRows(9, dim, u8)
		q := byteRows(1, dim, u8)[0]
		if dim == maxByteValuedDim {
			zero, full := func() float32 { return 0 }, func() float32 { return 255 }
			rows = append(byteRows(5, dim, full), byteRows(4, dim, zero)...)
			q = byteRows(1, dim, zero)[0]
			if got, want := l2sq4(q, rows[0]), float32(maxByteValuedDim*255*255); got != want {
				t.Fatalf("edge distance %v, want %v", got, want)
			}
		}
		var d [4]float32
		d[0], d[1], d[2], d[3] = l2sqF32x4FMA(q, rows[0], rows[1], rows[2], rows[3])
		for j := range d {
			same(t, fmt.Sprintf("d%d l2sqF32x4FMA row %d", dim, j), d[j], l2sq4(q, rows[j]))
		}
		k := NewKernel(L2, NewMatrix(rows))
		for _, pq := range []PreparedQuery{k.Prepare(q), k.Prepare(rows[0])} {
			if !pq.byteValued || !k.mat.byteValued {
				t.Fatalf("d%d: gate refused byte-valued operands", dim)
			}
			for n := 0; n <= 9; n++ {
				ids := make([]uint32, n)
				for i := range ids {
					ids[i] = uint32(rng.Intn(len(rows)))
				}
				out := make([]float32, n)
				k.DistsTo(pq, ids, out)
				for i, id := range ids {
					same(t, fmt.Sprintf("d%d DistsTo n=%d [%d]", dim, n, i), out[i], l2sq4(pq.vec, rows[id]))
				}
			}
		}
	}
}

// The gate admits exactly the operands the exactness argument covers:
// integers 0–255 (−0 included) at dim ≤ 258, on the query side
// (PrepareQuery) and the row side (NewMatrix) alike. dim 259 and a
// single component of 0.5, −1, 256 or NaN are refused.
func TestByteValuedGate(t *testing.T) {
	at := func(dim int, x float32) Vector {
		v := make(Vector, dim)
		for i := range v {
			v[i] = float32(i % 256)
		}
		v[dim/2] = x
		return v
	}
	for _, c := range []struct {
		v    Vector
		want bool
	}{
		{at(1, 0), true},
		{at(128, 255), true},
		{at(128, float32(math.Copysign(0, -1))), true},
		{at(258, 7), true},
		{at(259, 7), false},
		{at(128, 0.5), false},
		{at(128, -1), false},
		{at(128, 256), false},
		{at(128, float32(math.NaN())), false},
	} {
		if got := PrepareQuery(L2, c.v).byteValued; got != c.want {
			t.Errorf("dim %d component %v: query gate %v, want %v", len(c.v), c.v[len(c.v)/2], got, c.want)
		}
		rows := []Vector{at(len(c.v), 3), c.v}
		if got := NewMatrix(rows).byteValued; got != c.want {
			t.Errorf("dim %d component %v: row gate %v, want %v", len(c.v), c.v[len(c.v)/2], got, c.want)
		}
	}
}
