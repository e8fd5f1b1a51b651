package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The dispatch is invisible in the bits: with useAVX2 and useFMA
// switched off (the Go bodies), AVX2 alone, and both on (the order-free
// FMA body, where the CPU has them), Kernel.DistsTo,
// PreparedQuery.DistancesToStored over U8 rows and Kernel.DistRows
// return the same Float32bits, at dims on every remainder mod 8 and at
// row counts on every remainder mod 4, over normal float rows and over
// byte-valued rows and queries, the operands DistsTo's FMA gate admits.
func TestAVX2DispatchBitIdentical(t *testing.T) {
	hasAVX2, hasFMA := useAVX2, useFMA
	t.Cleanup(func() { useAVX2, useFMA = hasAVX2, hasFMA })
	if !hasAVX2 || !hasFMA {
		t.Logf("avx2=%v fma=%v on this CPU: only the paths it has can run", hasAVX2, hasFMA)
	}
	rng := rand.New(rand.NewSource(37))
	for _, d := range []struct {
		prefix string
		draw   func() float32
	}{
		{"", func() float32 { return float32(rng.NormFloat64() * 37) }},
		{"byte-valued/", func() float32 { return float32(rng.Intn(256)) }},
	} {
		draw := d.draw
		for _, dim := range []int{1, 4, 7, 8, 12, 13, 16, 100, 128, 131, 258} {
			for _, n := range []int{1, 4, 6, 9} {
				t.Run(fmt.Sprintf("%sd%d/n%d", d.prefix, dim, n), func(t *testing.T) {
					rows := make([]Vector, n)
					srcs := make([][]byte, n)
					ids := make([]uint32, n)
					for r := range rows {
						rows[r] = make(Vector, dim)
						srcs[r] = make([]byte, dim)
						for i := range rows[r] {
							rows[r][i] = draw()
							srcs[r][i] = byte(rng.Intn(256))
						}
						ids[r] = uint32(rng.Intn(n))
					}
					k := NewKernel(L2, NewMatrix(rows))
					query := make(Vector, dim)
					for i := range query {
						query[i] = draw()
					}
					q := k.Prepare(query)
					run := func(avx2, fma bool) []float32 {
						useAVX2, useFMA = avx2, fma
						to, stored := make([]float32, n), make([]float32, n)
						k.DistsTo(q, ids, to)
						q.DistancesToStored(U8, srcs, stored)
						out := append(to, stored...)
						for i := range rows {
							out = append(out, k.DistRows(i, (i+1)%n))
						}
						return out
					}
					want := run(false, false)
					for _, on := range [][2]bool{{true, false}, {true, true}} {
						if on[0] && !hasAVX2 || on[1] && !hasFMA {
							continue
						}
						got := run(on[0], on[1])
						for i := range want {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("avx2=%v fma=%v result %d: %v (%08x), Go %v (%08x)", on[0], on[1], i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				})
			}
		}
	}
}
