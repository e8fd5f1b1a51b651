// Package figures regenerates every table and figure of the paper's
// evaluation (§VII): each FigNN function runs the relevant workloads
// through the NDSEARCH simulator and the baseline platform models and
// emits the same rows/series the paper reports. DESIGN.md carries the
// per-experiment index; EXPERIMENTS.md records measured-vs-paper values.
package figures

import (
	"fmt"
	"path/filepath"
	"sync"

	"ndsearch/internal/ann"
	"ndsearch/internal/core"
	"ndsearch/internal/dataset"
	"ndsearch/internal/graph"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/nand"
	"ndsearch/internal/platform"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/togg"
	"ndsearch/internal/trace"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
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
	// mode. Cached snapshots are keyed separately per mode.
	Quantized bool
	Rerank    int
	// Serve selects how the graph indexes are served: "" or "ram"
	// (fully resident, the default), "mmap", or "readat" (beyond-RAM
	// paged serving over the cached snapshot files — requires a suite
	// CacheDir, since the paged store traverses the file in place).
	// Results are byte-identical across modes, so every figure is
	// unchanged; cache entries are keyed separately per serving mode so
	// paged runs, which hold their snapshot files open, never collide
	// with RAM runs in the disk cache.
	Serve string
}

// pagedBackend returns the paged serving backend, or "" for RAM modes.
func (s Scale) pagedBackend() string {
	if s.Serve == "" || s.Serve == "ram" {
		return ""
	}
	return s.Serve
}

// quantOpts is the slice of Scale the index constructors need.
type quantOpts struct {
	quantized bool
	rerank    int
}

func (s Scale) quant() quantOpts { return quantOpts{quantized: s.Quantized, rerank: s.Rerank} }

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

// Graph returns the index's base proximity graph as a mutable copy.
func (w *Workload) Graph() *graph.Graph {
	v := w.Index.Graph()
	g := graph.New(v.Len())
	for i := 0; i < v.Len(); i++ {
		g.SetNeighbors(uint32(i), append([]uint32(nil), v.Neighbors(uint32(i))...))
	}
	return g
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
	// CacheDir, when non-empty, persists built indexes as snapshot
	// files keyed by (profile, algo, N, seed), so repeated suite runs
	// (and repeated figure reproduction across processes) warm-start
	// instead of rebuilding. Loaded indexes answer searches
	// byte-identically to fresh builds, so traced batches, recall, and
	// therefore every figure are unchanged by the cache. Unreadable or
	// corrupt cache entries are rebuilt and overwritten; cache write
	// failures are ignored (the freshly built index is used directly).
	CacheDir string
	mu       sync.Mutex
	cache    map[string]*workloadSlot
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
// queries, rebuilding the cached entry if it is too small.
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
	idx, maxDeg, err := s.buildOrLoadIndex(profName, algo, d)
	if err != nil {
		return nil, err
	}
	w := &Workload{Profile: prof, Algo: algo, Index: idx, MaxDegree: maxDeg}
	w.Batch = &trace.Batch{Dataset: prof.Name, Algo: algo}
	for qi, q := range d.Queries {
		_, tr := idx.SearchTraced(q, s.Scale.K)
		tr.QueryID = qi
		w.Batch.Queries = append(w.Batch.Queries, tr)
	}
	// Measure recall on a small prefix to keep suite construction fast.
	probe := 20
	if probe > len(d.Queries) {
		probe = len(d.Queries)
	}
	var sum float64
	for _, q := range d.Queries[:probe] {
		exact := ann.BruteForce(prof.Metric, d.Vectors, q, s.Scale.K)
		approx := idx.Search(q, s.Scale.K)
		sum += ann.Recall(approx, exact, s.Scale.K)
	}
	if probe > 0 {
		w.Recall10 = sum / float64(probe)
	}
	slot.w = w
	return w, nil
}

// buildOrLoadIndex consults the on-disk snapshot cache (when enabled)
// before paying graph construction. The slot lock in WorkloadSized
// serialises same-key callers, and snapshot.SaveFile is atomic
// (temp + rename), so concurrent suite processes sharing a cache
// directory race benignly.
func (s *Suite) buildOrLoadIndex(profName, algo string, d *dataset.Dataset) (ann.Index, int, error) {
	backend := s.Scale.pagedBackend()
	if s.CacheDir == "" {
		if backend != "" {
			return nil, 0, fmt.Errorf("figures: serving mode %q pages indexes out of snapshot files; it requires a cache directory", s.Scale.Serve)
		}
		return buildIndex(algo, d, s.Scale.Seed, s.Scale.quant())
	}
	// Mode-specific key suffixes keep every serving mode's entries apart:
	// quantized beside full-precision (the "-sq8" precedent), and paged
	// runs — which keep their snapshot files open/mmapped for the whole
	// process — beside RAM runs that may rewrite stale entries.
	mode := ""
	if s.Scale.Quantized {
		mode = "-sq8"
	}
	if backend != "" {
		mode += "-" + backend
	}
	path := filepath.Join(s.CacheDir,
		fmt.Sprintf("%s-%s-n%d-seed%d%s.ndx", profName, algo, s.Scale.N, s.Scale.Seed, mode))
	if backend != "" {
		return s.loadOrBuildPaged(path, algo, d, backend)
	}
	if idx, err := snapshot.LoadFile(path); err == nil && idx.Len() == len(d.Vectors) &&
		s.cachedIndexCurrent(algo, idx, d.Profile.Metric) {
		return idx, workloadMaxDegree, nil
	}
	idx, maxDeg, err := buildIndex(algo, d, s.Scale.Seed, s.Scale.quant())
	if err != nil {
		return nil, 0, err
	}
	// Best effort: the cache is an optimization, so a write failure
	// (read-only or full cache directory) must not fail a figure run
	// that already holds a good index.
	_, _ = snapshot.SaveFile(path, idx, vec.F32)
	return idx, maxDeg, nil
}

// loadOrBuildPaged serves a suite workload's index out of its cached
// snapshot file through the paged NodeStore (mmap or readat backend):
// the beyond-RAM counterpart of the resident cache path, byte-identical
// by the paged store's contract. A missing or stale entry is rebuilt,
// saved, and reopened paged; if the save or reopen fails (read-only
// cache directory), the freshly built resident index serves instead —
// same results, just not paged. Paged handles stay open for the process
// lifetime, as the suite serves from them until exit.
func (s *Suite) loadOrBuildPaged(path, algo string, d *dataset.Dataset, backend string) (ann.Index, int, error) {
	if pi, err := snapshot.OpenPagedFile(path, snapshot.PagedOptions{Backend: backend}); err == nil {
		if idx := pi.Index(); idx.Len() == len(d.Vectors) && s.cachedIndexCurrent(algo, idx, d.Profile.Metric) {
			return idx, workloadMaxDegree, nil
		}
		_ = pi.Close()
	}
	idx, maxDeg, err := buildIndex(algo, d, s.Scale.Seed, s.Scale.quant())
	if err != nil {
		return nil, 0, err
	}
	if _, err := snapshot.SaveFile(path, idx, vec.F32); err == nil {
		if pi, err := snapshot.OpenPagedFile(path, snapshot.PagedOptions{Backend: backend}); err == nil {
			return pi.Index(), maxDeg, nil
		}
	}
	return idx, maxDeg, nil
}

// cachedIndexCurrent reports whether a cache-loaded index was built
// with exactly the parameters buildIndex would use today — a stale
// entry (hyperparameters changed since it was written) must be rebuilt,
// or cached figure runs would silently diverge from cache-less ones.
func (s *Suite) cachedIndexCurrent(algo string, idx ann.Index, m vec.Metric) bool {
	seed, q := s.Scale.Seed, s.Scale.quant()
	switch algo {
	case "hnsw":
		x, ok := idx.(*hnsw.Index)
		return ok && x.Params() == suiteHNSWConfig(m, seed, q)
	case "diskann":
		x, ok := idx.(*vamana.Index)
		return ok && x.Params() == suiteVamanaConfig(m, seed, q)
	case "hcnng":
		x, ok := idx.(*hcnng.Index)
		return ok && x.Params() == suiteHCNNGConfig(m, seed, q)
	case "togg":
		x, ok := idx.(*togg.Index)
		return ok && x.Params() == suiteTOGGConfig(m, seed, q)
	default:
		return false
	}
}

// workloadMaxDegree is the layout max degree every suite algorithm is
// built with (buildIndex returns it per build; cache loads reuse it).
const workloadMaxDegree = 24

// The suite build configurations, shared by buildIndex and the cache
// staleness check so the two can never disagree.

func suiteHNSWConfig(m vec.Metric, seed int64, q quantOpts) hnsw.Config {
	return hnsw.Config{M: 12, EfConstruction: 100, EfSearch: 64, Metric: m, Seed: seed,
		Quantized: q.quantized, Rerank: q.rerank}
}

func suiteVamanaConfig(m vec.Metric, seed int64, q quantOpts) vamana.Config {
	return vamana.Config{R: 24, L: 64, LSearch: 64, Alpha: 1.2, Metric: m, Seed: seed,
		Quantized: q.quantized, Rerank: q.rerank}
}

func suiteHCNNGConfig(m vec.Metric, seed int64, q quantOpts) hcnng.Config {
	return hcnng.Config{Clusterings: 10, LeafSize: 40, MaxDegree: 24, LSearch: 64, Metric: m, Seed: seed,
		Quantized: q.quantized, Rerank: q.rerank}
}

func suiteTOGGConfig(m vec.Metric, seed int64, q quantOpts) togg.Config {
	return togg.Config{K: 12, GuideDims: 8, GuideHops: 32, LSearch: 64, Metric: m, Seed: seed,
		Quantized: q.quantized, Rerank: q.rerank}
}

func buildIndex(algo string, d *dataset.Dataset, seed int64, q quantOpts) (ann.Index, int, error) {
	m := d.Profile.Metric
	switch algo {
	case "hnsw":
		idx, err := hnsw.Build(d.Vectors, suiteHNSWConfig(m, seed, q))
		return idx, workloadMaxDegree, err
	case "diskann":
		idx, err := vamana.Build(d.Vectors, suiteVamanaConfig(m, seed, q))
		return idx, workloadMaxDegree, err
	case "hcnng":
		idx, err := hcnng.Build(d.Vectors, suiteHCNNGConfig(m, seed, q))
		return idx, workloadMaxDegree, err
	case "togg":
		idx, err := buildTOGG(d, seed, q)
		return idx, workloadMaxDegree, err
	default:
		return nil, 0, fmt.Errorf("figures: unknown algorithm %q", algo)
	}
}

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

// BillionDatasets lists only the billion-scale datasets (Figs. 1, 2).
func BillionDatasets() []string {
	return []string{"sift-1b", "deep-1b", "spacev-1b"}
}
