// Package figures regenerates every table and figure of the paper's
// evaluation (§VII): each FigNN function runs the relevant workloads
// through the NDSEARCH simulator and the baseline platform models and
// emits the same rows/series the paper reports. DESIGN.md §6 carries the
// per-experiment index; each table's note lines carry the
// measured-vs-paper comparison.
package figures

import (
	"fmt"
	"slices"
	"sync"

	"ndsearch/internal/ann"
	"ndsearch/internal/core"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/nand"
	"ndsearch/internal/platform"
	"ndsearch/internal/trace"
)

// Scale controls the experiment size. Defaults reproduce the paper's
// shapes in seconds; larger values sharpen the statistics.
type Scale struct {
	// N is the per-dataset corpus size.
	N int
	// Batch is the default query batch (the paper's default is 2048).
	Batch int
	// K is the top-k requested.
	K int
	// Seed drives all generation.
	Seed int64
	// Quantized builds every suite graph index with the SQ8 compressed
	// traversal tier (exact rerank of Rerank candidates, 0 = full
	// list), so figures can be regenerated in the quantized serving
	// mode.
	Quantized bool
	Rerank    int
}

// DefaultScale returns the standard experiment scale.
func DefaultScale() Scale { return Scale{N: 4000, Batch: 1024, K: 10, Seed: 1} }

// TestScale returns a reduced scale for fast tests.
func TestScale() Scale { return Scale{N: 1200, Batch: 128, K: 10, Seed: 1} }

// Workload is one (dataset, algorithm) combination: the built index and
// a traced batch of queries.
type Workload struct {
	Profile   dataset.Profile
	Algo      string
	Index     ann.Index
	Batch     *trace.Batch
	MaxDegree int
	// Recall10 is the measured recall@10 of the built index (checked
	// against the paper's tuning targets).
	Recall10 float64
}

// SubBatch returns the first n traced queries (n clipped to the batch).
func (w *Workload) SubBatch(n int) *trace.Batch {
	if n > len(w.Batch.Queries) {
		n = len(w.Batch.Queries)
	}
	return &trace.Batch{Dataset: w.Batch.Dataset, Algo: w.Batch.Algo, Queries: w.Batch.Queries[:n]}
}

// PlatformWorkload adapts to the baseline models' input.
func (w *Workload) PlatformWorkload() platform.Workload {
	return platform.Workload{Profile: w.Profile, MaxDegree: w.MaxDegree}
}

// Suite builds and caches workloads across figures. It is safe for
// concurrent use: experiments running in parallel (RunMany, ndsearch
// -j) share cached workloads, with per-workload locking so distinct
// workloads build concurrently while same-key callers wait for one
// build.
type Suite struct {
	Scale Scale
	mu    sync.Mutex
	cache map[string]*workloadSlot
}

// workloadSlot serialises construction of one (dataset, algo) workload.
type workloadSlot struct {
	mu sync.Mutex
	w  *Workload
}

// NewSuite creates a suite at the given scale.
func NewSuite(s Scale) *Suite {
	return &Suite{Scale: s, cache: map[string]*workloadSlot{}}
}

// batch returns w's default-scale batch: exactly Scale.Batch traced
// queries, even when another experiment upsized the cached workload.
// Experiments must use this (or SubBatch) instead of w.Batch so their
// output does not depend on which experiments ran before them — the
// invariant that makes parallel RunMany byte-identical to serial runs.
func (s *Suite) batch(w *Workload) *trace.Batch {
	return w.SubBatch(s.Scale.Batch)
}

// Algos lists the two primary evaluation algorithms in paper order.
func Algos() []string { return []string{"hnsw", "diskann"} }

// Workload returns (building on first use) the workload for a dataset
// profile name and algorithm ("hnsw", "diskann", "hcnng", "togg").
func (s *Suite) Workload(profName, algo string) (*Workload, error) {
	return s.WorkloadSized(profName, algo, s.Scale.Batch)
}

// WorkloadSized returns a workload traced with at least `queries`
// queries. Upsizing a cached workload keeps its index and traces only
// the added queries: dataset.Generate draws the corpus before the
// queries, so the corpus does not depend on the query count and the
// cached batch is a prefix of the larger one.
func (s *Suite) WorkloadSized(profName, algo string, queries int) (*Workload, error) {
	key := fmt.Sprintf("%s/%s", profName, algo)
	s.mu.Lock()
	slot, ok := s.cache[key]
	if !ok {
		slot = &workloadSlot{}
		s.cache[key] = slot
	}
	s.mu.Unlock()
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.w != nil && len(slot.w.Batch.Queries) >= queries {
		return slot.w, nil
	}
	prof, err := dataset.ProfileByName(profName)
	if err != nil {
		return nil, err
	}
	d, err := dataset.Generate(prof, dataset.GenConfig{N: s.Scale.N, Queries: queries, Seed: s.Scale.Seed})
	if err != nil {
		return nil, err
	}
	var w *Workload
	if slot.w == nil {
		idx, err := s.buildIndex(algo, d)
		if err != nil {
			return nil, err
		}
		w = &Workload{Profile: prof, Algo: algo, Index: idx, MaxDegree: workloadMaxDegree,
			Batch: &trace.Batch{Dataset: prof.Name, Algo: algo}, Recall10: s.recall(idx, d)}
	} else {
		// A copy: callers still holding the smaller workload keep reading
		// it while this one grows.
		up, b := *slot.w, *slot.w.Batch
		b.Queries = slices.Clip(b.Queries)
		up.Batch = &b
		w = &up
	}
	for qi := len(w.Batch.Queries); qi < len(d.Queries); qi++ {
		_, tr := w.Index.SearchTraced(d.Queries[qi], s.Scale.K)
		tr.QueryID = qi
		w.Batch.Queries = append(w.Batch.Queries, tr)
	}
	slot.w = w
	return w, nil
}

// recall measures idx's recall@K on a small query prefix, to keep suite
// construction fast.
func (s *Suite) recall(idx ann.Index, d *dataset.Dataset) float64 {
	probe := min(20, len(d.Queries))
	if probe == 0 {
		return 0
	}
	var sum float64
	for _, q := range d.Queries[:probe] {
		exact := ann.BruteForce(d.Profile.Metric, d.Vectors, q, s.Scale.K)
		sum += ann.Recall(idx.Search(q, s.Scale.K), exact, s.Scale.K)
	}
	return sum / float64(probe)
}

// buildIndex builds the workload's index through the engine registry as
// shard 0, with the suite's own seed and quantized mode. The slot lock
// in WorkloadSized makes this the one build of the workload's index in
// the process.
func (s *Suite) buildIndex(algo string, d *dataset.Dataset) (ann.Index, error) {
	build, err := engine.BuilderWithOpts(algo, d.Profile.Metric, s.Scale.Seed,
		engine.IndexOpts{Quantized: s.Scale.Quantized, Rerank: s.Scale.Rerank})
	if err != nil {
		return nil, err
	}
	return build(0, d.Vectors)
}

// workloadMaxDegree is the graph R (the layout constant for footprints)
// every suite workload reports to the platform models, whatever its
// family.
const workloadMaxDegree = 24

// NDConfig returns the NDSEARCH configuration used by the experiments:
// the full scheduling stack on the experiment-scale geometry.
func NDConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Params.Geometry = nand.ScaledGeometry()
	return cfg
}

// NDSystem builds the NDSEARCH system for a workload under cfg.
func NDSystem(w *Workload, cfg core.Config) (*core.System, error) {
	return core.NewSystemFromIndex(w.Index, w.Profile, cfg)
}

// Datasets lists the five dataset names in the paper's order.
func Datasets() []string {
	names := make([]string, 0, 5)
	for _, p := range dataset.Profiles() {
		names = append(names, p.Name)
	}
	return names
}

// BillionDatasets lists only the billion-scale datasets (Figs. 1, 2),
// in the paper's order.
func BillionDatasets() []string {
	var names []string
	for _, p := range dataset.Profiles() {
		if p.IsBillionScale() {
			names = append(names, p.Name)
		}
	}
	return names
}
