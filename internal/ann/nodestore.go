package ann

import (
	"fmt"

	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// NodeStore is the traversal/storage boundary: everything a graph
// search needs from one node — its distance to the query (in the
// traversal representation and in exact full precision), its adjacency,
// and its per-dimension components (togg's guided stage) — keyed by
// node ID, with no commitment to where the bytes live. The in-RAM
// implementation (KernelStore) reads the vec.Matrix/vec.SQ8 slices the
// traversals used to touch directly; the paged implementation
// (snapshot.OpenPagedFile) scores node records where they lie, in
// page-aligned blocks, without decoding them. Both are bit-identical
// per the kernel layer's shared accumulation contract, which is what
// lets every serving mode return byte-identical results.
//
// A NodeStore must be safe for concurrent searches.
type NodeStore interface {
	// Len returns the number of stored nodes.
	Len() int
	// Dim returns the vector dimensionality.
	Dim() int
	// Quantized reports whether traversal distances evaluate in SQ8
	// code space (Dist ranks candidates; DistExact reranks the head).
	Quantized() bool
	// Prepare preprocesses a query for Dist: quantizing it under the
	// corpus scales when the store is quantized.
	Prepare(query vec.Vector) vec.PreparedQuery
	// PrepareExact preprocesses a query for DistExact (always full
	// precision).
	PrepareExact(query vec.Vector) vec.PreparedQuery
	// Dist returns the traversal distance from a Prepare'd query to
	// node v.
	Dist(q vec.PreparedQuery, v uint32) float32
	// Dists is the batched traversal distance: out[i] = Dist(*q, ids[i])
	// bit for bit, evaluated in ids order (a paged store resolves the
	// list's pages in that order, in one cache transaction, before it
	// scores the records). len(out) must equal len(ids). It is what
	// BeamSearch scores an expansion with — one interface call per
	// expansion instead of per neighbour.
	Dists(q *vec.PreparedQuery, ids []uint32, out []float32)
	// DistExact returns the exact metric distance from a PrepareExact'd
	// query to node v.
	DistExact(q vec.PreparedQuery, v uint32) float32
	// Neighbors returns node v's adjacency list. buf is caller scratch:
	// implementations that must materialize the list (paged stores)
	// append into buf[:0] and return it; in-RAM stores may ignore buf
	// and return a view they own. Either way the result is only valid
	// until the next Neighbors call with the same buf, and callers must
	// not mutate it. Ownership: a caller that reuses buf across calls
	// must keep passing its own backing array and never adopt the
	// returned slice as its next buf — it may be the store's resident
	// adjacency, and the next materializing store would append into it
	// (Scratch.Neighbors is the one place traversal code does this).
	Neighbors(v uint32, buf []uint32) []uint32
	// Components appends node v's value at each listed dimension to
	// buf[:0], in the traversal representation: widened SQ8 codes when
	// quantized (sign-exact — code values and their differences fit
	// float32 exactly), float32 row components otherwise.
	Components(v uint32, dims []int, buf []float32) []float32
}

// KernelStore is the in-RAM NodeStore: distances through a kernel pair
// over one corpus matrix (full-precision kern, traversal tkern — the
// same kernel when not quantized) and adjacency from a resident graph.
// It is the trivial implementation that keeps every existing result
// byte-identical: each method is exactly the slice access the
// traversals performed before the NodeStore boundary existed.
type KernelStore struct {
	kern  *vec.Kernel
	tkern *vec.Kernel
	g     *graph.Graph
}

// NewKernelStore wraps a corpus matrix and its base graph — freshly
// built or decoded from a snapshot — as the resident NodeStore. In
// quantized mode a matrix arriving without its SQ8 tier (a fresh build
// rather than a snapshot warm-start) is quantized here; quantization
// is deterministic, so either path yields identical codes. g may be nil
// for stores used only for distance evaluation (construction paths pass
// explicit per-layer graphs via WithGraph).
func NewKernelStore(m vec.Metric, mat *vec.Matrix, g *graph.Graph, quantized bool) (*KernelStore, error) {
	if g != nil && g.Len() != mat.Rows() {
		return nil, fmt.Errorf("%w: graph has %d vertices, corpus has %d", ErrBadConfig, g.Len(), mat.Rows())
	}
	kern := vec.NewKernel(m, mat)
	tkern := kern
	if quantized {
		mat.EnableSQ8()
		tkern = vec.NewQuantizedKernel(m, mat)
	}
	return &KernelStore{kern: kern, tkern: tkern, g: g}, nil
}

// FlatStore is the resident store of a flat family (exact, ivfpq): data
// copied into a contiguous matrix under metric m, with an edgeless graph
// — the shape a flat snapshot's blocks records decode to. The input
// slices are not retained.
func FlatStore(m vec.Metric, data []vec.Vector) *KernelStore {
	mat := vec.NewMatrix(data)
	kern := vec.NewKernel(m, mat)
	return &KernelStore{kern: kern, tkern: kern, g: graph.New(mat.Rows())}
}

// Matrix returns the corpus matrix. Callers must not mutate it.
func (s *KernelStore) Matrix() *vec.Matrix { return s.kern.Matrix() }

// BaseGraph returns the resident adjacency (nil for a distance-only
// store).
func (s *KernelStore) BaseGraph() *graph.Graph { return s.g }

// Len returns the node count.
func (s *KernelStore) Len() int {
	if s.g != nil {
		return s.g.Len()
	}
	return s.kern.Matrix().Rows()
}

// Dim returns the vector dimensionality.
func (s *KernelStore) Dim() int { return s.kern.Matrix().Dim() }

// Quantized reports whether traversal runs on the SQ8 tier.
func (s *KernelStore) Quantized() bool { return s.tkern.Quantized() }

// Prepare preprocesses a query for traversal distances.
func (s *KernelStore) Prepare(query vec.Vector) vec.PreparedQuery { return s.tkern.Prepare(query) }

// PrepareExact preprocesses a query for exact distances.
func (s *KernelStore) PrepareExact(query vec.Vector) vec.PreparedQuery {
	return s.kern.Prepare(query)
}

// Dist is the traversal-kernel distance to node v.
func (s *KernelStore) Dist(q vec.PreparedQuery, v uint32) float32 {
	return s.tkern.DistTo(q, int(v))
}

// Dists is the batched traversal-kernel distance (vec.Kernel.DistsTo,
// which shares DistTo's accumulation).
func (s *KernelStore) Dists(q *vec.PreparedQuery, ids []uint32, out []float32) {
	s.tkern.DistsTo(*q, ids, out)
}

// DistExact is the full-precision distance to node v.
func (s *KernelStore) DistExact(q vec.PreparedQuery, v uint32) float32 {
	return s.kern.DistTo(q, int(v))
}

// Neighbors returns the resident adjacency view (buf is unused).
func (s *KernelStore) Neighbors(v uint32, _ []uint32) []uint32 { return s.g.Neighbors(v) }

// Components reads the traversal representation's components.
func (s *KernelStore) Components(v uint32, dims []int, buf []float32) []float32 {
	buf = buf[:0]
	if sq := s.kern.Matrix().SQ8(); s.Quantized() && sq != nil {
		row := sq.Row(int(v))
		for _, d := range dims {
			buf = append(buf, float32(int8(row[d])))
		}
		return buf
	}
	row := s.kern.Matrix().Row(int(v))
	for _, d := range dims {
		buf = append(buf, row[d])
	}
	return buf
}

// graphOverride swaps a store's adjacency while keeping its distance
// evaluation — how HNSW traverses pinned upper layers (resident
// graphs) over whatever store serves the vectors.
type graphOverride struct {
	NodeStore
	g *graph.Graph
}

func (o graphOverride) Neighbors(v uint32, _ []uint32) []uint32 { return o.g.Neighbors(v) }

// WithGraph returns a NodeStore whose adjacency comes from g while
// distances still evaluate on s.
func WithGraph(s NodeStore, g *graph.Graph) NodeStore { return graphOverride{NodeStore: s, g: g} }

// CopyGraph copies a store's adjacency into a fresh graph: node v's
// list is Neighbors(v) for v in [0, Len()). Over a resident store that
// is its own graph's lists, over a paged store the lists its records
// hold, and over a flat family's store no edges at all. It reads every
// record once, so it is for placement, not traversal.
func CopyGraph(s NodeStore) *graph.Graph {
	g := graph.New(s.Len())
	for v := 0; v < s.Len(); v++ {
		g.SetNeighbors(uint32(v), append([]uint32(nil), s.Neighbors(uint32(v), nil)...))
	}
	return g
}
