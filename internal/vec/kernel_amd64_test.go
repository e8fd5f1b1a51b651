package vec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The dispatch is invisible in the bits: with useAVX2 switched off (the
// Go bodies) and back on (the AVX2 bodies, where the CPU has them),
// Kernel.DistsTo, Kernel.DistsAll, PreparedQuery.DistancesToStored over
// U8 rows and Kernel.DistRows return the same Float32bits, at dims on
// every remainder mod 8 and at row counts on every remainder mod 4.
func TestAVX2DispatchBitIdentical(t *testing.T) {
	hasAVX2 := useAVX2
	t.Cleanup(func() { useAVX2 = hasAVX2 })
	if !hasAVX2 {
		t.Log("no AVX2 on this CPU: only the Go bodies can run")
	}
	rng := rand.New(rand.NewSource(37))
	for _, dim := range []int{1, 4, 7, 8, 12, 13, 100, 128, 131} {
		for _, n := range []int{1, 4, 6, 9} {
			t.Run(fmt.Sprintf("d%d/n%d", dim, n), func(t *testing.T) {
				rows := make([]Vector, n)
				srcs := make([][]byte, n)
				ids := make([]uint32, n)
				for r := range rows {
					rows[r] = make(Vector, dim)
					srcs[r] = make([]byte, dim)
					for i := range rows[r] {
						rows[r][i] = float32(rng.NormFloat64() * 37)
						srcs[r][i] = byte(rng.Intn(256))
					}
					ids[r] = uint32(rng.Intn(n))
				}
				k := NewKernel(L2, NewMatrix(rows))
				q := k.Prepare(randVec(rng, dim))
				run := func(avx2 bool) []float32 {
					useAVX2 = avx2
					to, all, stored := make([]float32, n), make([]float32, n), make([]float32, n)
					k.DistsTo(q, ids, to)
					k.DistsAll(q, all)
					q.DistancesToStored(U8, srcs, stored)
					out := append(append(to, all...), stored...)
					for i := range rows {
						out = append(out, k.DistRows(i, (i+1)%n))
					}
					return out
				}
				want := run(false)
				if !hasAVX2 {
					return
				}
				got := run(true)
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("result %d: AVX2 %v (%08x), Go %v (%08x)", i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			})
		}
	}
}
