// Package togg implements TOGG (Xu et al. [81]): two-stage routing on a
// proximity graph. Stage one performs optimised guided search — at each
// hop only the neighbors lying in the query's direction octant (judged by
// per-dimension sign agreement on the top-variance dimensions) are
// expanded, which shortens the route to the query's region. Stage two
// switches to the standard greedy beam search for the final refinement.
// The paper's Fig. 21 runs it as an emerging ANNS workload.
//
// TOGG's contribution is the routing, not its proximity graph: the
// graph it routes over is HNSW's base layer (package hnsw), which
// reaches every row from HNSW's entry point, the vertex TOGG starts
// from.
package togg

import (
	"fmt"
	"sort"

	"ndsearch/internal/ann"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Config holds TOGG construction and search parameters.
type Config struct {
	// K is the HNSW M the base graph is built with: each vertex keeps
	// up to 2K out-edges.
	K int
	// GuideDims is how many top-variance dimensions the guided stage
	// compares sign-wise.
	GuideDims int
	// GuideHops bounds stage one's route length.
	GuideHops int
	// LSearch is stage two's beam width.
	LSearch int
	// Metric selects the distance function.
	Metric vec.Metric
	// Seed drives HNSW's level sampling, which fixes the base graph
	// and the entry.
	Seed int64
	// Quantized switches search traversal (both the guided stage and the
	// beam refinement) to the SQ8 compressed tier with exact rerank of
	// the candidate head; construction always runs full precision.
	Quantized bool
	// Rerank is the number of leading candidates re-scored exactly in
	// quantized mode; 0 means the whole candidate list. Ignored when
	// Quantized is false.
	Rerank int
}

// DefaultConfig is the TOGG recipe engine and figures build with: the
// one place these hyperparameters live. Callers fill in Seed and the
// quantized mode.
func DefaultConfig(metric vec.Metric) Config {
	return Config{K: 12, GuideDims: 8, GuideHops: 32, LSearch: 64, Metric: metric, Seed: 1}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.K < 2 {
		return fmt.Errorf("togg: K must be >= 2, got %d", c.K)
	}
	if c.GuideDims < 1 || c.GuideHops < 1 || c.LSearch < 1 {
		return fmt.Errorf("togg: degenerate guide/beam parameters")
	}
	if c.Rerank < 0 {
		return fmt.Errorf("togg: rerank width must be >= 0, got %d", c.Rerank)
	}
	return nil
}

// Index is a built TOGG index: the shared served core (ann.GraphIndex,
// running stage two) plus the guide dimensions stage one votes on.
type Index struct {
	ann.GraphIndex
	cfg       Config
	guideDims []int // top-variance dimensions used by stage one
}

var _ ann.Tunable = (*Index)(nil)

// Build constructs TOGG's base graph with the HNSW builder at M = K
// (its base layer holds up to 2K edges per vertex) and serves over that
// graph's level 0, entered at HNSW's entry point; the upper layers are
// dropped. The guide dimensions are the rows' top-variance components.
// The vectors are copied into a contiguous flat store; the input slices
// are not retained.
func Build(data []vec.Vector, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hcfg := hnsw.DefaultConfig(cfg.Metric)
	hcfg.M, hcfg.Seed, hcfg.Quantized = cfg.K, cfg.Seed, cfg.Quantized
	base, err := hnsw.Build(data, hcfg)
	if err != nil {
		return nil, fmt.Errorf("togg: %w", err)
	}
	store := base.Store()
	return FromStore(cfg, store, base.Entry(), pickGuideDims(store.(*ann.KernelStore).Matrix(), cfg.GuideDims))
}

// FromStore assembles a served index over a NodeStore, the entry point
// and the guide dimensions — the one reconstructor behind a fresh
// Build, a snapshot warm-start (an ann.KernelStore over the decoded
// matrix and graph) and paged serving (adjacency and vectors in
// snapshot blocks). No construction runs; searches are byte-identical
// to the index the parts came from (guideDims order included, since the
// guided stage's sign votes iterate it in order). All arguments are
// retained.
func FromStore(cfg Config, store ann.NodeStore, entry uint32, guideDims []int) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dim := store.Dim()
	if len(guideDims) == 0 || len(guideDims) > dim {
		return nil, fmt.Errorf("togg: %d guide dims for dim %d", len(guideDims), dim)
	}
	for _, d := range guideDims {
		if d < 0 || d >= dim {
			return nil, fmt.Errorf("togg: guide dim %d out of range %d", d, dim)
		}
	}
	x := &Index{cfg: cfg, guideDims: guideDims}
	gi, err := ann.NewGraphIndex(store, cfg.Metric, entry, cfg.LSearch, cfg.Quantized, cfg.Rerank, x.guide)
	if err != nil {
		return nil, fmt.Errorf("togg: %w", err)
	}
	x.GraphIndex = gi
	return x, nil
}

// pickGuideDims returns the n dimensions of mat with the largest
// component variance, in decreasing order of variance.
func pickGuideDims(mat *vec.Matrix, n int) []int {
	dim := mat.Dim()
	rows := mat.Rows()
	mean := make([]float64, dim)
	for r := 0; r < rows; r++ {
		vec.AccumulateF64(mean, mat.Row(r))
	}
	for i := range mean {
		mean[i] /= float64(rows)
	}
	variance := make([]float64, dim)
	for r := 0; r < rows; r++ {
		vec.AccumulateVarianceF64(variance, mean, mat.Row(r))
	}
	idxs := make([]int, dim)
	for i := range idxs {
		idxs[i] = i
	}
	sort.Slice(idxs, func(a, b int) bool { return variance[idxs[a]] > variance[idxs[b]] })
	return idxs[:min(n, dim)]
}

// guideScratch is per-search reusable buffers for the guided stage:
// the current vertex's and each neighbor's guide components (paged
// stores decode into them; in-RAM stores overwrite them with copies of
// resident values). Neighbor IDs come from the search's ann.Scratch.
type guideScratch struct {
	cur, nbr []float32
}

// queryComponents extracts the query's guide-dimension components in
// the store's traversal representation: widened int8 codes when
// quantized (the same values the distance kernel sees; code values and
// their pairwise differences are exact in float32, so the sign votes
// match the previous integer arithmetic bit for bit), float32
// components otherwise.
func (x *Index) queryComponents(st ann.NodeStore, q *vec.PreparedQuery) []float32 {
	out := make([]float32, len(x.guideDims))
	if st.Quantized() {
		qc := q.Codes()
		for i, d := range x.guideDims {
			out[i] = float32(int8(qc[d]))
		}
		return out
	}
	query := q.Vec()
	for i, d := range x.guideDims {
		out[i] = query[d]
	}
	return out
}

// guidedStep selects among cur's neighbors the closest one lying in the
// query's direction octant (sign agreement over the guide dimensions).
// Returns false if no neighbor qualifies or improves. qc holds the
// query's guide components from queryComponents.
func (x *Index) guidedStep(ss *ann.Scratch, st ann.NodeStore, q *vec.PreparedQuery, cur uint32, curDist float32, qc []float32, s *guideScratch, tr *trace.Query) (uint32, float32, bool) {
	nbrs := ss.Neighbors(st, cur)
	best := cur
	bestDist := curDist
	var computed []uint32
	s.cur = st.Components(cur, x.guideDims, s.cur)
	for _, n := range nbrs {
		agree := 0
		s.nbr = st.Components(n, x.guideDims, s.nbr)
		for i := range x.guideDims {
			dq := qc[i] - s.cur[i]
			dn := s.nbr[i] - s.cur[i]
			if (dq >= 0) == (dn >= 0) {
				agree++
			}
		}
		// Expand only neighbors pointing mostly toward the query.
		if agree*2 < len(x.guideDims) {
			continue
		}
		if tr != nil {
			computed = append(computed, n)
		}
		if d := st.Dist(*q, n); d < bestDist {
			best, bestDist = n, d
		}
	}
	if tr != nil && len(computed) > 0 {
		tr.Iters = append(tr.Iters, trace.Iter{Entry: cur, Neighbors: computed})
	}
	return best, bestDist, best != cur
}

// guide is TOGG's seed step, stage one: guided routing from the entry
// toward the query's region. Stage two — the greedy beam refinement from
// the routed vertex — is the shared ann.GraphIndex search.
func (x *Index) guide(ss *ann.Scratch, st ann.NodeStore, q *vec.PreparedQuery, entry uint32, tr *trace.Query) ann.Neighbor {
	cur := entry
	curDist := st.Dist(*q, cur)
	qc := x.queryComponents(st, q)
	var scratch guideScratch
	for hop := 0; hop < x.cfg.GuideHops; hop++ {
		next, nextDist, moved := x.guidedStep(ss, st, q, cur, curDist, qc, &scratch, tr)
		if !moved {
			break
		}
		cur, curDist = next, nextDist
	}
	return ann.Neighbor{ID: cur, Dist: curDist}
}

// GuideDims exposes the selected top-variance dimensions, in vote
// order. Owned by the index.
func (x *Index) GuideDims() []int { return x.guideDims }

// Params returns the construction/search configuration of the built
// index, with LSearch at the current (possibly tuned) beam width.
func (x *Index) Params() Config {
	cfg := x.cfg
	cfg.LSearch = x.BeamWidth()
	return cfg
}
