// Package hcnng implements HCNNG (Munoz et al. [63]): a proximity graph
// built as the union of minimum spanning trees over leaves of repeated
// random hierarchical clusterings. The search phase is the standard
// greedy beam search with trace capture; the paper's Fig. 21 evaluates
// it as an "emerging graph-traversal ANNS" workload on NDSEARCH.
package hcnng

import (
	"fmt"
	"math/rand"
	"sort"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// Config holds HCNNG construction and search parameters.
type Config struct {
	// Clusterings is the number of independent random hierarchical
	// clusterings whose MST edges are unioned.
	Clusterings int
	// LeafSize stops the recursive partitioning.
	LeafSize int
	// MaxDegree caps the out-degree after the union.
	MaxDegree int
	// LSearch is the search beam width.
	LSearch int
	// Metric selects the distance function.
	Metric vec.Metric
	// Seed drives partitioning.
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

// DefaultConfig is the HCNNG recipe engine and figures build with: the
// one place these hyperparameters live. Callers fill in Seed and the
// quantized mode.
func DefaultConfig(metric vec.Metric) Config {
	return Config{Clusterings: 10, LeafSize: 40, MaxDegree: 24, LSearch: 64, Metric: metric, Seed: 1}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Clusterings < 1 {
		return fmt.Errorf("hcnng: need at least one clustering")
	}
	if c.LeafSize < 3 {
		return fmt.Errorf("hcnng: leaf size must be >= 3, got %d", c.LeafSize)
	}
	if c.MaxDegree < 2 || c.LSearch < 1 {
		return fmt.Errorf("hcnng: degenerate degree/beam parameters")
	}
	if c.Rerank < 0 {
		return fmt.Errorf("hcnng: rerank width must be >= 0, got %d", c.Rerank)
	}
	return nil
}

// Index is a built HCNNG graph: the shared served core (ann.GraphIndex)
// seeded at the max-degree vertex, plus the build configuration.
type Index struct {
	ann.GraphIndex
	cfg Config
}

var _ ann.Tunable = (*Index)(nil)

// builder is the construction-time state; construction always
// evaluates full precision through kern.
type builder struct {
	cfg  Config
	kern *vec.Kernel
	g    *graph.Graph
}

// Build constructs the HCNNG index. The vectors are copied into a
// contiguous flat store; the input slices are not retained.
func Build(data []vec.Vector, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("hcnng: empty dataset")
	}
	mat := vec.NewMatrix(data)
	b := &builder{cfg: cfg, kern: vec.NewKernel(cfg.Metric, mat), g: graph.New(len(data))}
	rng := rand.New(rand.NewSource(cfg.Seed))
	points := make([]uint32, len(data))
	for i := range points {
		points[i] = uint32(i)
	}
	for c := 0; c < cfg.Clusterings; c++ {
		b.cluster(points, rng)
	}
	b.capDegrees()
	// Start from a well-connected vertex: the max-degree vertex, which
	// sits in the densest region.
	entry, bestDeg := uint32(0), -1
	for v := 0; v < b.g.Len(); v++ {
		if d := b.g.Degree(uint32(v)); d > bestDeg {
			bestDeg, entry = d, uint32(v)
		}
	}
	store, err := ann.NewKernelStore(cfg.Metric, mat, b.g, cfg.Quantized)
	if err != nil {
		return nil, fmt.Errorf("hcnng: %w", err)
	}
	return FromStore(cfg, store, entry)
}

// FromStore assembles a served index over a NodeStore and the entry
// point — the one reconstructor behind a fresh Build, a snapshot
// warm-start (an ann.KernelStore over the decoded matrix and graph)
// and paged serving (adjacency and vectors in snapshot blocks). No
// construction runs; searches are byte-identical to the index the parts
// came from.
func FromStore(cfg Config, store ann.NodeStore, entry uint32) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gi, err := ann.NewGraphIndex(store, cfg.Metric, entry, cfg.LSearch, cfg.Quantized, cfg.Rerank, nil)
	if err != nil {
		return nil, fmt.Errorf("hcnng: %w", err)
	}
	return &Index{GraphIndex: gi, cfg: cfg}, nil
}

// cluster recursively bi-partitions points by two random pivots and
// builds an MST in each leaf.
func (x *builder) cluster(points []uint32, rng *rand.Rand) {
	if len(points) <= x.cfg.LeafSize {
		x.mstEdges(points)
		return
	}
	a := points[rng.Intn(len(points))]
	b := points[rng.Intn(len(points))]
	for b == a {
		b = points[rng.Intn(len(points))]
	}
	var left, right []uint32
	for _, p := range points {
		if x.kern.DistRows(int(p), int(a)) <= x.kern.DistRows(int(p), int(b)) {
			left = append(left, p)
		} else {
			right = append(right, p)
		}
	}
	// Degenerate split: fall back to an arbitrary halving so recursion
	// always terminates.
	if len(left) == 0 || len(right) == 0 {
		mid := len(points) / 2
		left, right = points[:mid], points[mid:]
	}
	x.cluster(left, rng)
	x.cluster(right, rng)
}

// mstEdges adds the MST of the leaf's complete distance graph (Prim's
// algorithm) to the index graph, bidirectionally.
func (x *builder) mstEdges(points []uint32) {
	n := len(points)
	if n < 2 {
		return
	}
	inTree := make([]bool, n)
	minDist := make([]float32, n)
	minEdge := make([]int, n)
	for i := range minDist {
		minDist[i] = float32(1e38)
		minEdge[i] = -1
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		minDist[i] = x.kern.DistRows(int(points[0]), int(points[i]))
		minEdge[i] = 0
	}
	for added := 1; added < n; added++ {
		best, bestD := -1, float32(1e38)
		for i := 0; i < n; i++ {
			if !inTree[i] && minDist[i] < bestD {
				best, bestD = i, minDist[i]
			}
		}
		if best < 0 {
			return
		}
		inTree[best] = true
		x.g.AddEdge(points[best], points[minEdge[best]])
		x.g.AddEdge(points[minEdge[best]], points[best])
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := x.kern.DistRows(int(points[best]), int(points[i])); d < minDist[i] {
					minDist[i] = d
					minEdge[i] = best
				}
			}
		}
	}
}

// capDegrees trims each vertex's neighbor list to the MaxDegree nearest.
func (x *builder) capDegrees() {
	for v := 0; v < x.g.Len(); v++ {
		nbrs := x.g.Neighbors(uint32(v))
		if len(nbrs) <= x.cfg.MaxDegree {
			continue
		}
		cands := make([]ann.Neighbor, len(nbrs))
		for i, n := range nbrs {
			cands[i] = ann.Neighbor{ID: n, Dist: x.kern.DistRows(v, int(n))}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Dist < cands[j].Dist })
		out := make([]uint32, x.cfg.MaxDegree)
		for i := range out {
			out[i] = cands[i].ID
		}
		x.g.SetNeighbors(uint32(v), out)
	}
}

// Params returns the construction/search configuration of the built
// index, with LSearch at the current (possibly tuned) beam width.
func (x *Index) Params() Config {
	cfg := x.cfg
	cfg.LSearch = x.BeamWidth()
	return cfg
}
