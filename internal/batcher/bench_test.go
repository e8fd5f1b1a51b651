package batcher

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// The serialized baseline: one-query SearchBatch calls back to back —
// what concurrent single-query HTTP handlers cost without coalescing.
func BenchmarkSerializedSingleQuery(b *testing.B) {
	e, d := testEngine(b, 3000, 64, 1, runtime.GOMAXPROCS(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SearchBatch(d.Queries[i%len(d.Queries):i%len(d.Queries)+1], 10)
	}
}

// The coalesced path: many concurrent submitters, batches formed by the
// scheduler. Compare QPS against BenchmarkSerializedSingleQuery; on a
// multicore host the ratio is the acceptance target (>= 3x).
func BenchmarkCoalescedSingleQuery(b *testing.B) {
	e, d := testEngine(b, 3000, 64, 1, runtime.GOMAXPROCS(0))
	bat := New(e)
	defer bat.Close()
	var next atomic.Int64
	b.SetParallelism(16) // submitters per proc: drive real coalescing
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			qi := int(next.Add(1)) % len(d.Queries)
			if _, _, err := bat.Search(d.Queries[qi], 10, nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
