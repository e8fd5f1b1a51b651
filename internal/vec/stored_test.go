package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// storedRow draws a row representable in kind k (random, or all zero)
// and returns its at-rest bytes.
func storedRow(t testing.TB, rng *rand.Rand, k ElemKind, dim int, zero bool) []byte {
	t.Helper()
	row := make(Vector, dim)
	if !zero {
		for i := range row {
			switch k {
			case U8:
				row[i] = float32(rng.Intn(256))
			case I8:
				row[i] = float32(rng.Intn(256) - 128)
			default:
				row[i] = float32(rng.NormFloat64() * 37)
			}
		}
	}
	src := make([]byte, StoredBytes(k, dim))
	if _, err := Encode(k, row, src); err != nil {
		t.Fatalf("encode %v: %v", k, err)
	}
	return src
}

var storedDims = []int{0, 1, 3, 4, 5, 12, 100, 128, 131}

// The at-rest kernels are the decode-then-score path bit for bit: for
// every metric, element kind and dimension (multiples of the unroll
// width and not), on random and all-zero rows and queries,
// DistanceToStored (and the batched DistancesToStored over all of a
// case's rows) equals DecodeInto + DistanceTo by Float32bits, and
// DecodeAt reads what DecodeInto writes.
func TestDistanceToStoredMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, k := range []ElemKind{F32, U8, I8} {
			for _, dim := range storedDims {
				t.Run(fmt.Sprintf("%v/%v/d%d", m, k, dim), func(t *testing.T) {
					queries := []PreparedQuery{
						PrepareQuery(m, randVec(rng, dim)),
						PrepareQuery(m, make(Vector, dim)),
					}
					const trials = 6
					srcs := make([][]byte, trials)
					wants := make([][trials]float32, len(queries))
					for trial := 0; trial < trials; trial++ {
						src := storedRow(t, rng, k, dim, trial == 0)
						srcs[trial] = src
						row := make(Vector, dim)
						if err := DecodeInto(k, src, row); err != nil {
							t.Fatal(err)
						}
						for d := range row {
							if got := DecodeAt(k, src, d); math.Float32bits(got) != math.Float32bits(row[d]) {
								t.Fatalf("DecodeAt(%d) = %v, DecodeInto = %v", d, got, row[d])
							}
						}
						for qi := range queries {
							q := &queries[qi]
							got, want := q.DistanceToStored(k, src), q.DistanceTo(row)
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("trial %d query %d: at rest %v (%08x), decoded %v (%08x)",
									trial, qi, got, math.Float32bits(got), want, math.Float32bits(want))
							}
							wants[qi][trial] = want
						}
					}
					// The batched entry over all trials' rows at once.
					for qi := range queries {
						out := make([]float32, trials)
						queries[qi].DistancesToStored(k, srcs, out)
						for trial, got := range out {
							if want := wants[qi][trial]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("batched trial %d query %d: at rest %v (%08x), decoded %v (%08x)",
									trial, qi, got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				})
			}
		}
	}
}

// The paged code-row entry and the resident quantized Kernel are one
// scorer: DistanceToCodeBytes over an SQ8.Row's bytes equals DistTo,
// DistsTo and (row i as the query) DistRows by Float32bits,
// for every metric and dimension (127 too), with the norms computed on
// the fly on one side and precomputed on the other. The rows hold zero,
// +127, -127 and 0x80 (-128, which quantization never writes but
// SQ8FromParts and the paged reader accept) in every component, +127
// and 0x80 alternating, and random bytes; the queries are random,
// zero, and saturated to ±127.
func TestDistanceToCodeBytesMatchesCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fills := []func(d int) byte{
		func(int) byte { return 0 },
		func(int) byte { return 0x7f },
		func(int) byte { return 0x81 },
		func(int) byte { return 0x80 },
		func(d int) byte { return 0x7f + byte(d%2) },
	}
	const rows = 12
	for _, m := range []Metric{L2, Angular, InnerProduct} {
		for _, dim := range append(storedDims, 127) {
			t.Run(fmt.Sprintf("%v/d%d", m, dim), func(t *testing.T) {
				codes := make([]byte, rows*dim)
				for i := range codes {
					codes[i] = byte(rng.Intn(256))
					if r := i / max(dim, 1); r < len(fills) {
						codes[i] = fills[r](i % dim)
					}
				}
				scales := make([]float32, dim)
				for d := range scales {
					scales[d] = 1.0 / 127
				}
				data := make([]Vector, rows)
				for i := range data {
					data[i] = make(Vector, dim)
				}
				mat := NewMatrix(data)
				sq := QuantizeSQ8(mat) // dim 0: SQ8FromParts rejects the shape
				if dim > 0 {
					var err error
					if sq, err = SQ8FromParts(dim, rows, scales, codes); err != nil {
						t.Fatal(err)
					}
				}
				if err := mat.AttachSQ8(sq); err != nil {
					t.Fatal(err)
				}
				k := NewQuantizedKernel(m, mat)
				check := func(name string, i int, got, want float32) {
					t.Helper()
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("%s row %d: resident %v (%08x), code bytes %v (%08x)",
							name, i, got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
				saturated := randVec(rng, dim)
				for d := range saturated {
					saturated[d] *= 1000
				}
				ids := make([]uint32, rows) // reversed: DistsTo indexes, not scans
				for i := range ids {
					ids[i] = uint32(rows - 1 - i)
				}
				batch := make([]float32, rows)
				for _, query := range []Vector{randVec(rng, dim), make(Vector, dim), saturated} {
					q := k.Prepare(query)
					k.DistsTo(q, ids, batch)
					for i := 0; i < rows; i++ {
						want := q.DistanceToCodeBytes(sq.Row(i))
						check("DistTo", i, k.DistTo(q, i), want)
						check("DistsTo", i, batch[rows-1-i], want)
					}
				}
				// Row codes holding 0x80 are no quantized query, so row i
				// becomes the query directly from its bytes.
				for i := 0; i < rows; i++ {
					qi := PreparedQuery{metric: m, codes: sq.Row(i), codeNorm: codeNorm(sq.Row(i))}
					for j := 0; j < rows; j++ {
						check(fmt.Sprintf("DistRows(%d, ·)", i), j, k.DistRows(i, j), qi.DistanceToCodeBytes(sq.Row(j)))
					}
				}
			})
		}
	}
}

// A record of the wrong length panics, like every other kernel entry.
func TestStoredKernelsPanicOnDimMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	q := PrepareQuantized(L2, make(Vector, 8), make([]float32, 8))
	for _, k := range []ElemKind{F32, U8, I8} {
		for _, n := range []int{StoredBytes(k, 7), StoredBytes(k, 9)} {
			mustPanic(fmt.Sprintf("%v/%d bytes", k, n), func() { q.DistanceToStored(k, make([]byte, n)) })
		}
	}
	mustPanic("unknown kind", func() { q.DistanceToStored(ElemKind(9), make([]byte, 8)) })
	// The batched entry checks every row, inside a four-row pass too.
	short := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 7), make([]byte, 8)}
	mustPanic("batched/short row", func() { q.DistancesToStored(U8, short, make([]float32, 4)) })
	mustPanic("batched/out length", func() { q.DistancesToStored(U8, short[:1], make([]float32, 2)) })
	mustPanic("codes/7", func() { q.DistanceToCodeBytes(make([]byte, 7)) })
	mustPanic("codes/9", func() { q.DistanceToCodeBytes(make([]byte, 9)) })
	plain := PrepareQuery(L2, make(Vector, 8))
	mustPanic("no codes", func() { plain.DistanceToCodeBytes(make([]byte, 8)) })
}
