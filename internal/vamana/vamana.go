// Package vamana implements the Vamana graph used by DiskANN (Subramanya
// et al. [70]), the paper's second primary workload: RobustPrune-based
// construction over two passes with increasing alpha, beam search from
// the medoid, and trace capture. DiskANN's defining system trait — the
// SSD-resident index with DRAM caching of hot vertices — is reproduced
// by the platform models; this package provides the algorithm itself.
package vamana

import (
	"fmt"
	"math/rand"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// Config holds Vamana construction and search parameters.
type Config struct {
	// R is the maximum out-degree (the paper's R=32 layout constant).
	R int
	// L is the construction beam width (candidate list size).
	L int
	// LSearch is the default search beam width.
	LSearch int
	// Alpha is the RobustPrune distance slack (>= 1); the second
	// construction pass uses this value, the first uses 1.0.
	Alpha float32
	// Metric selects the distance function.
	Metric vec.Metric
	// Seed drives the random insertion order.
	Seed int64
	// Quantized switches search traversal to the SQ8 compressed tier
	// with exact rerank of the candidate head; construction always runs
	// full precision.
	Quantized bool
	// Rerank is the number of leading candidates re-scored exactly in
	// quantized mode; 0 means the whole candidate list. Ignored when
	// Quantized is false.
	Rerank int
}

// DefaultConfig is the Vamana (DiskANN) recipe engine and figures build
// with: the one place these hyperparameters live. Callers fill in Seed
// and the quantized mode.
func DefaultConfig(metric vec.Metric) Config {
	return Config{R: 24, L: 64, LSearch: 64, Alpha: 1.2, Metric: metric, Seed: 1}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.R < 2 {
		return fmt.Errorf("vamana: R must be >= 2, got %d", c.R)
	}
	if c.L < 1 || c.LSearch < 1 {
		return fmt.Errorf("vamana: beam widths must be >= 1")
	}
	if c.Alpha < 1 {
		return fmt.Errorf("vamana: alpha must be >= 1, got %v", c.Alpha)
	}
	if c.Rerank < 0 {
		return fmt.Errorf("vamana: rerank width must be >= 0, got %d", c.Rerank)
	}
	return nil
}

// Index is a built Vamana graph: the shared served core
// (ann.GraphIndex) seeded at the medoid, plus the build configuration.
type Index struct {
	ann.GraphIndex
	cfg Config
}

var _ ann.Tunable = (*Index)(nil)

// builder is the construction-time state; construction always
// evaluates full precision: row pairs through kern, the insertion beam
// searches through store (kern's distances over the graph under
// construction) on one scratch.
type builder struct {
	cfg     Config
	mat     *vec.Matrix
	kern    *vec.Kernel
	g       *graph.Graph
	store   *ann.KernelStore
	scratch *ann.Scratch
	scored  []ann.Neighbor // beamSearchVisited's result, reused per insertion
	medoid  uint32
}

// Build constructs the Vamana graph: start from a random regular graph,
// then run two RobustPrune passes (alpha=1 then alpha=cfg.Alpha) over a
// random permutation of the points, exactly as DiskANN does. The
// vectors are copied into a contiguous flat store; the input slices are
// not retained.
func Build(data []vec.Vector, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("vamana: empty dataset")
	}
	mat := vec.NewMatrix(data)
	g := graph.New(len(data))
	bs, err := ann.NewKernelStore(cfg.Metric, mat, g, false)
	if err != nil {
		return nil, fmt.Errorf("vamana: %w", err)
	}
	b := &builder{cfg: cfg, mat: mat, kern: vec.NewKernel(cfg.Metric, mat), g: g, store: bs, scratch: ann.NewScratch()}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b.medoid = b.computeMedoid(rng)
	b.randomInit(rng)
	perm := rng.Perm(len(data))
	for _, alpha := range []float32{1.0, cfg.Alpha} {
		for _, pi := range perm {
			p := uint32(pi)
			visited := b.beamSearchVisited(mat.Row(pi), cfg.L)
			b.robustPrune(p, visited, alpha)
			for _, n := range b.g.Neighbors(p) {
				b.g.AddEdge(n, p)
				if b.g.Degree(n) > cfg.R {
					nbrs := b.g.Neighbors(n)
					cands := make([]ann.Neighbor, len(nbrs))
					for i, w := range nbrs {
						cands[i] = ann.Neighbor{ID: w, Dist: b.kern.DistRows(int(n), int(w))}
					}
					b.robustPrune(n, cands, alpha)
				}
			}
		}
	}
	store, err := ann.NewKernelStore(cfg.Metric, mat, b.g, cfg.Quantized)
	if err != nil {
		return nil, fmt.Errorf("vamana: %w", err)
	}
	return FromStore(cfg, store, b.medoid)
}

// FromStore assembles a served index over a NodeStore and the medoid —
// the one reconstructor behind a fresh Build, a snapshot warm-start (an
// ann.KernelStore over the decoded matrix and graph) and paged serving
// (adjacency and vectors in snapshot blocks). No construction runs;
// searches are byte-identical to the index the parts came from.
func FromStore(cfg Config, store ann.NodeStore, medoid uint32) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gi, err := ann.NewGraphIndex(store, cfg.Metric, medoid, cfg.LSearch, cfg.Quantized, cfg.Rerank, nil)
	if err != nil {
		return nil, fmt.Errorf("vamana: %w", err)
	}
	return &Index{GraphIndex: gi, cfg: cfg}, nil
}

// computeMedoid approximates the medoid by sampling: the point minimising
// distance to a random probe set. Exact medoid is O(n^2); sampling keeps
// construction fast and is what DiskANN's implementation does at scale.
func (x *builder) computeMedoid(rng *rand.Rand) uint32 {
	n := x.mat.Rows()
	probes := 64
	if probes > n {
		probes = n
	}
	probeSet := rng.Perm(n)[:probes]
	best, bestSum := uint32(0), float64(1e300)
	step := n/256 + 1
	for i := 0; i < n; i += step {
		var sum float64
		for _, p := range probeSet {
			sum += float64(x.kern.DistRows(i, p))
		}
		if sum < bestSum {
			bestSum = sum
			best = uint32(i)
		}
	}
	return best
}

// randomInit seeds each vertex with R random out-neighbors.
func (x *builder) randomInit(rng *rand.Rand) {
	n := x.mat.Rows()
	for v := 0; v < n; v++ {
		for t := 0; t < x.cfg.R && t < n-1; t++ {
			w := uint32(rng.Intn(n))
			if int(w) != v {
				x.g.AddEdge(uint32(v), w)
			}
		}
	}
}

// beamSearchVisited runs the greedy beam search used during construction
// and returns every scored candidate with its distance (the medoid
// first). The slice is reused by the next call.
func (x *builder) beamSearchVisited(q vec.Vector, l int) []ann.Neighbor {
	pq := x.store.Prepare(q)
	start := ann.Neighbor{ID: x.medoid, Dist: x.store.Dist(pq, x.medoid)}
	x.scored = x.scored[:0]
	ann.BeamSearch(x.scratch, x.store, &pq, start, l, nil, &x.scored, nil)
	return x.scored
}

// robustPrune sets p's out-neighbors to at most R candidates using
// DiskANN's alpha-RobustPrune: repeatedly take the closest remaining
// candidate and discard every candidate c with
// alpha * d(selected, c) <= d(p, c).
func (x *builder) robustPrune(p uint32, cands []ann.Neighbor, alpha float32) {
	// Merge current neighbors into the pool.
	pool := append([]ann.Neighbor(nil), cands...)
	for _, n := range x.g.Neighbors(p) {
		pool = append(pool, ann.Neighbor{ID: n, Dist: x.kern.DistRows(int(p), int(n))})
	}
	// De-duplicate, drop self.
	seen := map[uint32]bool{p: true}
	uniq := pool[:0]
	for _, c := range pool {
		if !seen[c.ID] {
			seen[c.ID] = true
			uniq = append(uniq, c)
		}
	}
	ann.SortNeighbors(uniq)
	var out []uint32
	alive := uniq
	for len(alive) > 0 && len(out) < x.cfg.R {
		best := alive[0]
		out = append(out, best.ID)
		next := alive[:0]
		for _, c := range alive[1:] {
			if alpha*x.kern.DistRows(int(best.ID), int(c.ID)) <= c.Dist {
				continue // pruned: best covers c's direction
			}
			next = append(next, c)
		}
		alive = next
	}
	x.g.SetNeighbors(p, out)
}

// Medoid returns the search entry point.
func (x *Index) Medoid() uint32 { return x.Entry() }

// Params returns the construction/search configuration of the built
// index, with LSearch at the current (possibly tuned) beam width.
func (x *Index) Params() Config {
	cfg := x.cfg
	cfg.LSearch = x.BeamWidth()
	return cfg
}
