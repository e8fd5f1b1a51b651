// Package hnsw implements Hierarchical Navigable Small World graphs
// (Malkov & Yashunin, the paper's primary HNSW workload [59]):
// construction with exponential level sampling and the neighbor-selection
// heuristic, plus layered greedy/beam search with trace capture for the
// NDP simulators.
package hnsw

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Config holds HNSW construction and search parameters.
type Config struct {
	// M is the maximum out-degree on layers > 0; the base layer allows
	// 2*M (the standard Mmax0 choice).
	M int
	// EfConstruction is the beam width during insertion.
	EfConstruction int
	// EfSearch is the default beam width during search.
	EfSearch int
	// Metric selects the distance function.
	Metric vec.Metric
	// Seed drives level sampling; fixed seeds give identical graphs.
	Seed int64
	// Quantized switches search traversal to the SQ8 compressed tier:
	// candidates are ranked by int8 code-space distances, then the head
	// is re-scored exactly on the float32 rows before returning top-k.
	// Construction always runs full precision — build cost is paid once,
	// graph quality is not degraded by quantization.
	Quantized bool
	// Rerank is the number of leading candidates re-scored exactly in
	// quantized mode; 0 means the whole candidate list (recall-optimal
	// default). Ignored when Quantized is false.
	Rerank int
}

// DefaultConfig is the HNSW recipe engine and figures build with: the
// one place these hyperparameters live. Callers fill in Seed and the
// quantized mode.
func DefaultConfig(metric vec.Metric) Config {
	return Config{M: 12, EfConstruction: 100, EfSearch: 64, Metric: metric, Seed: 1}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.M < 2 {
		return fmt.Errorf("hnsw: M must be >= 2, got %d", c.M)
	}
	if c.EfConstruction < 1 || c.EfSearch < 1 {
		return fmt.Errorf("hnsw: ef parameters must be >= 1")
	}
	if c.Rerank < 0 {
		return fmt.Errorf("hnsw: rerank width must be >= 0, got %d", c.Rerank)
	}
	return nil
}

// Index is a built HNSW graph over a fixed corpus: the shared served
// core (store, entry, beam, rerank — ann.GraphIndex) plus HNSW's
// navigation data, the resident upper layers the search descends
// through before the base-layer beam.
type Index struct {
	ann.GraphIndex
	cfg      Config
	layers   []*graph.Graph  // layers[0] is the base layer (nil when paged)
	nav      []ann.NodeStore // nav[l], l >= 1: the store's distances over layers[l]
	levels   []int           // highest layer of each vertex
	maxLevel int
}

var _ ann.Tunable = (*Index)(nil)

// builder is the construction-time state. Construction always
// evaluates full precision (kern, and bs — a distance-only store;
// stores[l] is bs over layers[l]'s adjacency). Every insert searches
// through the one scratch.
type builder struct {
	cfg      Config
	mat      *vec.Matrix
	kern     *vec.Kernel
	bs       ann.NodeStore
	scratch  *ann.Scratch
	layers   []*graph.Graph
	stores   []ann.NodeStore
	levels   []int
	entry    uint32
	maxLevel int
}

// Build constructs an HNSW index over data, then links any base-layer
// vertex the entry cannot reach (graph.Span). The vectors are copied
// into a contiguous flat store; the input slices are not retained.
func Build(data []vec.Vector, cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("hnsw: empty dataset")
	}
	mat := vec.NewMatrix(data)
	bs, err := ann.NewKernelStore(cfg.Metric, mat, nil, false)
	if err != nil {
		return nil, fmt.Errorf("hnsw: %w", err)
	}
	b := &builder{
		cfg:      cfg,
		mat:      mat,
		kern:     vec.NewKernel(cfg.Metric, mat),
		bs:       bs,
		scratch:  ann.NewScratch(),
		levels:   make([]int, len(data)),
		maxLevel: -1,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	mL := 1.0 / math.Log(float64(cfg.M))
	for i := range data {
		level := int(-math.Log(rng.Float64()+1e-18) * mL)
		b.insert(uint32(i), level)
	}
	// shrink can drop the last edge into a vertex (10 of 8 000
	// fashion-mnist rows): link each vertex the entry cannot reach on
	// the base layer, the one every search ends on.
	b.layers[0].Span(b.entry, 2*cfg.M, b.near, func(v, w uint32) float32 { return b.kern.DistRows(int(v), int(w)) })
	store, err := ann.NewKernelStore(cfg.Metric, mat, b.layers[0], cfg.Quantized)
	if err != nil {
		return nil, fmt.Errorf("hnsw: %w", err)
	}
	return FromStore(cfg, store, b.layers[1:], b.levels, b.entry, b.maxLevel)
}

// FromStore assembles a served index over a NodeStore and the resident
// navigation structure (upper layers, levels, entry) — the one
// reconstructor behind a fresh Build, a snapshot warm-start (an
// ann.KernelStore over the decoded matrix and base layer) and paged
// serving (base adjacency and vectors in snapshot blocks). upper holds
// layers 1..maxLevel; the base layer is the store's adjacency. No
// construction runs; searches are byte-identical to the index the parts
// came from. All arguments are retained.
func FromStore(cfg Config, store ann.NodeStore, upper []*graph.Graph, levels []int, entry uint32, maxLevel int) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := store.Len()
	if len(levels) != n {
		return nil, fmt.Errorf("hnsw: %d levels for %d vectors", len(levels), n)
	}
	if maxLevel < 0 || len(upper) != maxLevel {
		return nil, fmt.Errorf("hnsw: %d upper layers with max level %d", len(upper), maxLevel)
	}
	for l, g := range upper {
		if g.Len() != n {
			return nil, fmt.Errorf("hnsw: layer %d has %d vertices, corpus has %d", l+1, g.Len(), n)
		}
	}
	x := &Index{cfg: cfg, levels: levels, maxLevel: maxLevel}
	gi, err := ann.NewGraphIndex(store, cfg.Metric, entry, cfg.EfSearch, cfg.Quantized, cfg.Rerank, x.descend)
	if err != nil {
		return nil, fmt.Errorf("hnsw: %w", err)
	}
	x.GraphIndex = gi
	x.layers = append([]*graph.Graph{gi.BaseGraph()}, upper...)
	x.nav = make([]ann.NodeStore, len(x.layers))
	for l := 1; l < len(x.layers); l++ {
		x.nav[l] = ann.WithGraph(store, x.layers[l])
	}
	return x, nil
}

func (x *builder) ensureLayers(level int) {
	for len(x.layers) <= level {
		g := graph.New(x.mat.Rows())
		x.layers = append(x.layers, g)
		x.stores = append(x.stores, ann.WithGraph(x.bs, g))
	}
}

func (x *builder) insert(v uint32, level int) {
	x.ensureLayers(level)
	x.levels[v] = level
	if x.maxLevel < 0 { // first vertex
		x.entry = v
		x.maxLevel = level
		return
	}
	q := x.kern.Prepare(x.mat.Row(int(v)))
	ep := x.entry
	// Greedy descent through layers above the insertion level.
	for l := x.maxLevel; l > level; l-- {
		ep, _ = greedyClosest(x.scratch, x.stores[l], &q, ep, nil)
	}
	// Beam insert from min(level, maxLevel) down to 0.
	top := level
	if top > x.maxLevel {
		top = x.maxLevel
	}
	for l := top; l >= 0; l-- {
		start := ann.Neighbor{ID: ep, Dist: x.bs.Dist(q, ep)}
		cands := ann.BeamSearch(x.scratch, x.stores[l], &q, start, x.cfg.EfConstruction, nil, nil, nil)
		m := x.cfg.M
		if l == 0 {
			m = 2 * x.cfg.M
		}
		selected := x.selectHeuristic(cands, m)
		for _, n := range selected {
			x.layers[l].AddEdge(v, n.ID)
			x.layers[l].AddEdge(n.ID, v)
			x.shrink(n.ID, l, m)
		}
		if len(selected) > 0 {
			ep = selected[0].ID
		}
	}
	if level > x.maxLevel {
		x.maxLevel = level
		x.entry = v
	}
}

// near returns the base-layer vertices a search for row v's vector ends
// on, nearest first: the greedy descent from the entry, then the
// construction beam.
func (x *builder) near(v uint32) []uint32 {
	q := x.kern.Prepare(x.mat.Row(int(v)))
	ep := x.entry
	for l := x.maxLevel; l > 0; l-- {
		ep, _ = greedyClosest(x.scratch, x.stores[l], &q, ep, nil)
	}
	start := ann.Neighbor{ID: ep, Dist: x.bs.Dist(q, ep)}
	res := ann.BeamSearch(x.scratch, x.stores[0], &q, start, x.cfg.EfConstruction, nil, nil, nil)
	ids := make([]uint32, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

// shrink re-prunes w's neighbor list on layer l to at most m entries
// using the selection heuristic.
func (x *builder) shrink(w uint32, l, m int) {
	g := x.layers[l]
	nbrs := g.Neighbors(w)
	if len(nbrs) <= m {
		return
	}
	cands := make([]ann.Neighbor, len(nbrs))
	for i, n := range nbrs {
		cands[i] = ann.Neighbor{ID: n, Dist: x.kern.DistRows(int(w), int(n))}
	}
	ann.SortNeighbors(cands)
	selected := x.selectHeuristic(cands, m)
	out := make([]uint32, len(selected))
	for i, s := range selected {
		out[i] = s.ID
	}
	g.SetNeighbors(w, out)
}

// selectHeuristic is Malkov's Algorithm 4: keep a candidate only if it is
// closer to the query point than to every already-selected neighbor,
// which spreads edges across directions.
func (x *builder) selectHeuristic(cands []ann.Neighbor, m int) []ann.Neighbor {
	if len(cands) <= m {
		return cands
	}
	selected := make([]ann.Neighbor, 0, m)
	for _, c := range cands {
		if len(selected) >= m {
			break
		}
		good := true
		for _, s := range selected {
			if x.kern.DistRows(int(c.ID), int(s.ID)) < c.Dist {
				good = false
				break
			}
		}
		if good {
			selected = append(selected, c)
		}
	}
	// Backfill with the nearest rejected candidates if the heuristic was
	// too aggressive, as hnswlib does.
	if len(selected) < m {
		for _, c := range cands {
			if len(selected) >= m {
				break
			}
			// selected holds at most m (2*M on the base layer) entries, so
			// a linear scan beats building a set per call.
			if !slices.ContainsFunc(selected, func(s ann.Neighbor) bool { return s.ID == c.ID }) {
				selected = append(selected, c)
			}
		}
		ann.SortNeighbors(selected)
	}
	return selected
}

// greedyClosest walks st's adjacency greedily from ep toward q,
// returning the local minimum. The store carries both the distance
// representation (float or SQ8 code space) and the adjacency (a pinned
// upper layer via WithGraph, or the base layer/blocks). Each hop scores
// the whole neighbour list in one st.Dists call — a paged store
// resolves it in list order in one cache transaction, as per-neighbour
// Dist calls would touch it — and then scans it in list order, moving
// on a strictly smaller distance. When tr is non-nil each expansion is
// recorded.
func greedyClosest(s *ann.Scratch, st ann.NodeStore, q *vec.PreparedQuery, ep uint32, tr *trace.Query) (uint32, float32) {
	cur := ep
	curDist := st.Dist(*q, cur)
	for {
		nbrs := s.Neighbors(st, cur)
		if len(nbrs) == 0 {
			return cur, curDist
		}
		if tr != nil {
			tr.Iters = append(tr.Iters, trace.Iter{Entry: cur, Neighbors: slices.Clone(nbrs)})
		}
		improved := false
		for i, d := range s.Dists(st, q, nbrs) {
			if d < curDist {
				cur, curDist = nbrs[i], d
				improved = true
			}
		}
		if !improved {
			return cur, curDist
		}
	}
}

// descend is HNSW's seed step: greedy descent from the global entry
// through the upper layers. They are always resident (the pinned
// navigation section in paged mode); only their adjacency is swapped in
// (nav, bound once in FromStore) — distances come from the store
// either way.
func (x *Index) descend(s *ann.Scratch, st ann.NodeStore, q *vec.PreparedQuery, ep uint32, tr *trace.Query) ann.Neighbor {
	for l := x.maxLevel; l > 0; l-- {
		ep, _ = greedyClosest(s, x.nav[l], q, ep, tr)
	}
	return ann.Neighbor{ID: ep, Dist: st.Dist(*q, ep)}
}

// Params returns the construction/search configuration of the built
// index, with EfSearch at the current (possibly tuned) beam width.
func (x *Index) Params() Config {
	cfg := x.cfg
	cfg.EfSearch = x.BeamWidth()
	return cfg
}

// Layers returns all graph layers, base layer first (nil base when
// paged). The slice and the graphs are owned by the index and must not
// be mutated.
func (x *Index) Layers() []*graph.Graph { return x.layers }

// Levels returns the per-vertex top layers. Owned by the index.
func (x *Index) Levels() []int { return x.levels }

// MaxLevel returns the highest populated layer.
func (x *Index) MaxLevel() int { return x.maxLevel }

// EntryPoint returns the global entry vertex.
func (x *Index) EntryPoint() uint32 { return x.Entry() }
