package hnsw

import (
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/recalltest"
	"ndsearch/internal/vec"
)

func quantCfg(m vec.Metric, quantized bool) Config {
	cfg := Config{M: 12, EfConstruction: 100, EfSearch: 64, Metric: m, Seed: 1}
	cfg.Quantized = quantized
	return cfg
}

// Acceptance floor: quantized traversal with full-list rerank holds
// recall@10 within 1% of the float32 index on the seed datasets —
// sift-1b for L2 and glove-100 for Angular, covering both metric
// families the profiles use.
func TestQuantizedRecallFloor(t *testing.T) {
	for _, profile := range []string{"sift-1b", "glove-100"} {
		c := recalltest.Load(t, profile, 2000, 20, 10, 7)
		recalltest.RequireQuantizedFloor(t, "hnsw", c, 0.01, func(quantized bool) (ann.Index, error) {
			return Build(c.Data, quantCfg(c.Profile.Metric, quantized))
		})
	}
}

// A narrow rerank width still returns exact distances and k results —
// only recall may degrade, never the result contract.
func TestQuantizedNarrowRerank(t *testing.T) {
	c := recalltest.Load(t, "sift-1b", 600, 8, 10, 9)
	cfg := quantCfg(c.Profile.Metric, true)
	cfg.Rerank = 10 // bare minimum: rerank exactly k candidates
	x, err := Build(c.Data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range c.Queries {
		res := x.Search(q, 10)
		if len(res) != 10 {
			t.Fatalf("narrow rerank returned %d results, want 10", len(res))
		}
		if err := ann.Validate(res, len(c.Data)); err != nil {
			t.Fatal(err)
		}
	}
}

// Quantized results must carry exact full-precision distances: for each
// returned ID, the distance must equal the scalar-reference distance to
// that row, not a code-space value.
func TestQuantizedDistancesAreExact(t *testing.T) {
	c := recalltest.Load(t, "sift-1b", 400, 6, 10, 11)
	x, err := Build(c.Data, quantCfg(c.Profile.Metric, true))
	if err != nil {
		t.Fatal(err)
	}
	kern := vec.NewKernel(c.Profile.Metric, x.Store().(*ann.KernelStore).Matrix())
	for _, query := range c.Queries {
		pq := kern.Prepare(query)
		for _, r := range x.Search(query, 10) {
			if want := kern.DistTo(pq, int(r.ID)); r.Dist != want {
				t.Fatalf("result ID %d distance %v != exact %v", r.ID, r.Dist, want)
			}
		}
	}
}
