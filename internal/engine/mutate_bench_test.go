package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"ndsearch/internal/vec"
)

func benchCorpus(b *testing.B, n, dim int, seed int64) []vec.Vector {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, n)
	for i := range data {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = rng.Float32()
		}
		data[i] = v
	}
	return data
}

// BenchmarkReadUnderWrite measures sustained SearchBatch throughput
// while a background writer churns the delta tier: the price of the
// generational merge (delta scan + in-traversal tombstone filtering +
// base re-check) relative to the pure-read fast path, which is
// benchmarked as the writers=0 case. Supporting evidence only: reads
// under writes are scored by ndbench's mutate_mix (bench/README.md).
func BenchmarkReadUnderWrite(b *testing.B) {
	const (
		n     = 4096
		dim   = 128
		batch = 32
		k     = 10
	)
	data := benchCorpus(b, n+1024, dim, 9)
	corpus, spare := data[:n], data[n:]
	queries := benchCorpus(b, batch, dim, 11)

	for _, writers := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("exact/shards4/writers%d", writers), func(b *testing.B) {
			builder, err := BuilderByName("exact", vec.L2, 1)
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(corpus, Config{Shards: 4, Builder: builder})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()

			var stop atomic.Bool
			done := make(chan struct{})
			for w := 0; w < writers; w++ {
				go func(w int) {
					defer func() { done <- struct{}{} }()
					i := 0
					for !stop.Load() {
						id := uint32(n + (w*len(spare)/2+i)%len(spare))
						if i%3 == 2 {
							if _, err := e.Delete(id); err != nil {
								b.Error(err)
								return
							}
						} else if err := e.Upsert(id, spare[i%len(spare)]); err != nil {
							b.Error(err)
							return
						}
						i++
					}
				}(w)
			}

			b.ResetTimer()
			var qps float64
			for i := 0; i < b.N; i++ {
				res, st := e.SearchBatch(queries, k)
				if len(res) != batch {
					b.Fatalf("got %d results, want %d", len(res), batch)
				}
				qps = st.QPS
			}
			b.StopTimer()
			stop.Store(true)
			for w := 0; w < writers; w++ {
				<-done
			}
			b.ReportMetric(qps, "qps")
			st := e.MutStats()
			b.ReportMetric(float64(st.DeltaLive+st.DeltaTombstones), "delta_shadows")
		})
	}
}

// BenchmarkCompact measures draining a loaded delta into a fresh base
// generation (merge + rebuild + swap), per delta size.
func BenchmarkCompact(b *testing.B) {
	const (
		n   = 4096
		dim = 128
	)
	data := benchCorpus(b, n+2048, dim, 13)
	corpus, spare := data[:n], data[n:]

	for _, writes := range []int{256, 2048} {
		b.Run(fmt.Sprintf("exact/shards4/writes%d", writes), func(b *testing.B) {
			builder, err := BuilderByName("exact", vec.L2, 1)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e, err := New(corpus, Config{Shards: 4, Builder: builder})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < writes; j++ {
					if err := e.Upsert(uint32(n+j), spare[j%len(spare)]); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := e.Compact(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
				b.StartTimer()
			}
		})
	}
}
