package engine

import (
	"math"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
)

// buildQuantTestEngine mirrors buildTestEngine with the SQ8 traversal
// mode on.
func buildQuantTestEngine(t *testing.T, algo string, shards, rerank int) (*Engine, *dataset.Dataset) {
	t.Helper()
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 600, Queries: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	opts := IndexOpts{Quantized: true, Rerank: rerank}
	builder, err := BuilderWithOpts(algo, prof.Metric, 9, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{
		Shards: shards, Workers: 4, Builder: builder,
		Meta: Meta{Algo: algo, Dataset: prof.Name, Seed: 9, Elem: prof.Elem},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, d
}

func TestBuilderWithOptsRejectsQuantizedExact(t *testing.T) {
	if _, err := BuilderWithOpts("exact", dataset.Sift1B().Metric, 1, IndexOpts{Quantized: true}); err == nil {
		t.Fatal("quantized exact builder must fail")
	}
	if _, err := BuilderWithOpts("exact", dataset.Sift1B().Metric, 1, IndexOpts{}); err != nil {
		t.Fatalf("plain exact builder: %v", err)
	}
}

// A quantized engine round-trips its snapshot directory: the shard
// headers record the mode, and the reload serves byte-identically.
func TestQuantEngineSaveLoadRoundTrip(t *testing.T) {
	for _, algo := range []string{"hnsw", "diskann"} {
		t.Run(algo, func(t *testing.T) {
			e, d := buildQuantTestEngine(t, algo, 3, 32)
			dir := t.TempDir()
			if err := e.Save(dir); err != nil {
				t.Fatalf("save: %v", err)
			}
			loaded, man, err := Load(dir, 4)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			t.Cleanup(loaded.Close)
			if !man.Header.Quantized || man.Header.Rerank != 32 {
				t.Fatalf("loaded header quantized=%v rerank=%d, want true/32", man.Header.Quantized, man.Header.Rerank)
			}
			want, _ := e.SearchBatch(d.Queries, 10)
			got, _ := loaded.SearchBatch(d.Queries, 10)
			for qi := range want {
				if len(got[qi]) != len(want[qi]) {
					t.Fatalf("query %d: %d results, want %d", qi, len(got[qi]), len(want[qi]))
				}
				for i := range want[qi] {
					g, w := got[qi][i], want[qi][i]
					if g.ID != w.ID || math.Float32bits(g.Dist) != math.Float32bits(w.Dist) {
						t.Fatalf("query %d result %d: got %+v, want %+v", qi, i, g, w)
					}
				}
			}
		})
	}
}

// The SQ8 mode a directory loads with is the one the shards were built
// with, not the caller's Meta: an engine whose Meta names only the algo
// saves a directory that loads with the shards' quantized bit and
// rerank width.
func TestQuantEngineSaveRecordsShardMode(t *testing.T) {
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 300, Queries: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	builder, err := BuilderWithOpts("hnsw", prof.Metric, 3, IndexOpts{Quantized: true, Rerank: 32})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{Shards: 2, Workers: 2, Builder: builder, Meta: Meta{Algo: "hnsw"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	dir := t.TempDir()
	if err := e.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, man, err := Load(dir, 2)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	t.Cleanup(loaded.Close)
	if !man.Header.Quantized || man.Header.Rerank != 32 {
		t.Fatalf("loaded header quantized=%v rerank=%d, want true/32", man.Header.Quantized, man.Header.Rerank)
	}
}

// Engine-level recall floor: the sharded quantized engine stays within
// 1% recall@10 of the sharded float32 engine on the same corpus.
func TestQuantEngineRecallFloor(t *testing.T) {
	prof := dataset.Sift1B()
	n, queries := 2000, 16
	if testing.Short() {
		n, queries = 500, 4
	}
	d, err := dataset.Generate(prof, dataset.GenConfig{N: n, Queries: queries, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	truth := make([][]ann.Neighbor, len(d.Queries))
	for i, q := range d.Queries {
		truth[i] = ann.BruteForce(prof.Metric, d.Vectors, q, k)
	}
	recallOf := func(quantized bool) float64 {
		t.Helper()
		builder, err := BuilderWithOpts("hnsw", prof.Metric, 9, IndexOpts{Quantized: quantized})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(d.Vectors, Config{Shards: 3, Workers: 4, Builder: builder})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		got, _ := e.SearchBatch(d.Queries, k)
		hits, total := 0, 0
		for qi := range truth {
			want := map[uint32]bool{}
			for _, nb := range truth[qi] {
				want[nb.ID] = true
			}
			for _, nb := range got[qi] {
				if want[nb.ID] {
					hits++
				}
			}
			total += len(truth[qi])
		}
		return float64(hits) / float64(total)
	}
	floatRecall := recallOf(false)
	quantRecall := recallOf(true)
	t.Logf("engine recall@%d: float32 %.4f, sq8 %.4f", k, floatRecall, quantRecall)
	if quantRecall < floatRecall-0.01 {
		t.Errorf("quantized engine recall %.4f below float32 %.4f - 0.01", quantRecall, floatRecall)
	}
}
