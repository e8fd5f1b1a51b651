package snapshot

import (
	"bytes"
	"math/rand"
	"testing"

	"ndsearch/internal/hnsw"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// The load-vs-rebuild benchmarks quantify the warm-start win: Load
// must beat Build by a wide margin, since that ratio is the whole point
// of the subsystem (restart in file-I/O time instead of construction
// time). Supporting evidence only: ndbench's traced pass reports
// snapshot.load_ram_ms beside hnsw.build_s (bench/README.md).

const (
	benchN   = 2000
	benchDim = 96
)

func benchCorpus() []vec.Vector { return testData(benchN, benchDim, 1) }

func benchHNSWConfig() hnsw.Config {
	return hnsw.Config{M: 12, EfConstruction: 100, EfSearch: 64, Metric: vec.L2, Seed: 1}
}

func benchVamanaConfig() vamana.Config {
	return vamana.Config{R: 24, L: 64, LSearch: 64, Alpha: 1.2, Metric: vec.L2, Seed: 1}
}

func BenchmarkBuildHNSW(b *testing.B) {
	data := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hnsw.Build(data, benchHNSWConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSaveHNSW(b *testing.B) {
	idx, err := hnsw.Build(benchCorpus(), benchHNSWConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := Save(&buf, idx, vec.F32); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkLoadHNSW(b *testing.B) {
	idx, err := hnsw.Build(benchCorpus(), benchHNSWConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, idx, vec.F32); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildVamana(b *testing.B) {
	data := benchCorpus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vamana.Build(data, benchVamanaConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadVamana(b *testing.B) {
	idx, err := vamana.Build(benchCorpus(), benchVamanaConfig())
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, idx, vec.F32); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Load(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagedDists measures PagedStore.Dists — one expansion's worth
// of ids resolved in one cache transaction and scored on the page — on
// at-rest U8 rows (the sift shape), F32 rows and SQ8 code bytes, over
// mmap with a cache of an eighth of the image so most look-ups fault.
// It must report 0 allocs/op. Supporting evidence only: ndbench's
// paged_batch is the scoreboard (bench/README.md).
func BenchmarkPagedDists(b *testing.B) {
	const dim, expansion = 128, 32
	for _, c := range []struct {
		name      string
		kind      vec.ElemKind
		quantized bool
	}{{"u8", vec.U8, false}, {"f32", vec.F32, false}, {"sq8", vec.F32, true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := benchHNSWConfig()
			cfg.Quantized = c.quantized
			idx, err := hnsw.Build(toKind(c.kind, testData(benchN, dim, 1)), cfg)
			if err != nil {
				b.Fatal(err)
			}
			path := savedSnapshot(b, idx, c.kind)
			probe, err := OpenPagedFile(path, PagedOptions{})
			if err != nil {
				b.Fatal(err)
			}
			pages := probe.Stats().TotalPages
			probe.Close()
			paged, err := OpenPagedFile(path, PagedOptions{CachePages: int((pages + 7) / 8)})
			if err != nil {
				b.Fatal(err)
			}
			defer paged.Close()
			st := paged.Store()
			rng := rand.New(rand.NewSource(2))
			lists := make([][]uint32, 256)
			for i := range lists {
				lists[i] = make([]uint32, expansion)
				for j := range lists[i] {
					lists[i][j] = uint32(rng.Intn(benchN))
				}
			}
			q := st.Prepare(toKind(c.kind, testQueries(2, dim, 3))[1])
			out := make([]float32, expansion)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Dists(&q, lists[i%len(lists)], out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*expansion), "ns/dist")
		})
	}
}
