package engine

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

// BenchmarkSearchBatch is the end-to-end engine throughput benchmark:
// a sharded exact engine (every query pays the full kernel scan of
// every shard) driven with a fixed query batch, then the hnsw/ram and
// hnsw/mmap sub-benchmarks (benchSearchBatchHNSW). qps is reported as a
// custom metric. Supporting evidence only: the serving-layer scoreboard
// is ndbench's ram_batch and paged_batch (bench/README.md).
func BenchmarkSearchBatch(b *testing.B) {
	const (
		n     = 4096
		dim   = 128
		batch = 64
		k     = 10
	)
	rng := rand.New(rand.NewSource(9))
	data := make([]vec.Vector, n)
	for i := range data {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = rng.Float32()
		}
		data[i] = v
	}
	queries := make([]vec.Vector, batch)
	for i := range queries {
		v := make(vec.Vector, dim)
		for d := range v {
			v[d] = rng.Float32()
		}
		queries[i] = v
	}
	for _, metric := range []vec.Metric{vec.L2, vec.Angular} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("exact/%v/shards%d", metric, shards), func(b *testing.B) {
				builder, err := BuilderByName("exact", metric, 1)
				if err != nil {
					b.Fatal(err)
				}
				e, err := New(data, Config{Shards: shards, Builder: builder})
				if err != nil {
					b.Fatal(err)
				}
				defer e.Close()
				b.ResetTimer()
				var qps float64
				for i := 0; i < b.N; i++ {
					res, st := e.SearchBatch(queries, k)
					if len(res) != batch {
						b.Fatalf("got %d results, want %d", len(res), batch)
					}
					qps = st.QPS
				}
				b.ReportMetric(qps, "qps")
			})
		}
	}
	benchSearchBatchHNSW(b)
}

// benchSearchBatchHNSW is BenchmarkSearchBatch's graph-traversal half at
// ndbench's shape — 8000×128 sift-1b profile, 4 hnsw shards, batch 32,
// k 10 — resident (hnsw/ram) and paged with ndbench's 1/8 page cache
// (hnsw/mmap). Its allocs/op is the traversal core's allocation budget:
// a search should allocate what it returns and nothing per expansion.
func benchSearchBatchHNSW(b *testing.B) {
	const (
		n      = 8000
		shards = 4
		batch  = 32
		k      = 10
	)
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: n, Queries: batch, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	builder, err := BuilderByName("hnsw", prof.Metric, 1)
	if err != nil {
		b.Fatal(err)
	}
	ram, err := New(d.Vectors, Config{
		Shards: shards, Builder: builder,
		Meta: Meta{Algo: "hnsw", Dataset: prof.Name, Seed: 1, Elem: prof.Elem},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer ram.Close()
	dir := filepath.Join(b.TempDir(), "snapshot")
	if err := ram.Save(dir); err != nil {
		b.Fatal(err)
	}
	probe, _, err := LoadWithOptions(dir, LoadOptions{Serve: ServeMmap})
	if err != nil {
		b.Fatal(err)
	}
	ps, _ := probe.PageStats()
	probe.Close()
	perShard := (int(ps.TotalPages) + shards - 1) / shards
	mmap, _, err := LoadWithOptions(dir, LoadOptions{Serve: ServeMmap, CachePages: (perShard + 7) / 8})
	if err != nil {
		b.Fatal(err)
	}
	defer mmap.Close()
	for _, mode := range []struct {
		name string
		e    *Engine
	}{{"hnsw/ram", ram}, {"hnsw/mmap", mmap}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var qps float64
			for i := 0; i < b.N; i++ {
				res, st := mode.e.SearchBatch(d.Queries, k)
				if len(res) != batch {
					b.Fatalf("got %d results, want %d", len(res), batch)
				}
				qps = st.QPS
			}
			b.ReportMetric(qps, "qps")
		})
	}
}
