package snapshot

import (
	"bytes"
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
		if err := Save(&buf, idx, vec.F32); err != nil {
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
	if err := Save(&buf, idx, vec.F32); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
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
	if err := Save(&buf, idx, vec.F32); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
