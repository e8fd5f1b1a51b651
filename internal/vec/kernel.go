package vec

import (
	"fmt"
	"math"
)

// This file is the batched distance-kernel layer: 4-way unrolled float32
// inner loops over the Matrix flat store, with stored-vector norms read
// from the precomputed tables and the query norm computed once per
// search (PrepareQuery) instead of once per comparison.
//
// Accumulation-order caveat: the unrolled kernels accumulate in four
// independent float32 partial sums folded pairwise at the end, while
// the scalar reference path (Distance, AngularDistance) accumulates
// sequentially — in float64 for Angular. Kernel results therefore agree
// with the scalar path only to floating-point tolerance (the property
// tests assert 1e-5 relative), but every kernel-path consumer uses the
// same accumulation order, so distances are internally consistent and
// exact-search results are reproducible bit for bit across BruteForce,
// Exact, and the sharded engine.
//
// Every L2 path over float32 rows goes through l2sq / l2sqRows4, which
// run SSE2 bodies on amd64 (kernel_amd64.s) with l2sq4's exact bits;
// l2sq4 itself is the reference and the path on other GOARCHes.

// dot4 is the 4-way unrolled inner product.
func dot4(a, b []float32) float32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// l2sq4 is the 4-way unrolled squared Euclidean distance.
func l2sq4(a, b []float32) float32 {
	b = b[:len(a)] // bounds-check elimination hint
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// l2sq is the float32 L2 entry every kernel path calls: l2sq4's bits,
// from the SSE2 body on amd64 (kernel_amd64.go). b is sliced to len(a)
// here, so a short row panics in Go before the assembly runs.
func l2sq(a, b []float32) float32 { return l2sqF32x1(a, b[:len(a)]) }

// l2sqRows4 is l2sq from q to four rows in one pass: four independent
// add chains whose loads overlap, each result l2sq's bits.
func l2sqRows4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	return l2sqF32x4(q, r0[:n], r1[:n], r2[:n], r3[:n])
}

// l2sqAll is l2sq from q to each of the len(out) rows laid end to end
// in buf (stride len(q)), four rows per pass — the one full-scan L2 loop
// Kernel.DistsAll and PreparedQuery.DistancesToFlat share.
func l2sqAll(q, buf, out []float32) {
	dim := len(q)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		r := buf[i*dim : (i+4)*dim]
		out[i], out[i+1], out[i+2], out[i+3] = l2sqRows4(q,
			r[:dim], r[dim:2*dim], r[2*dim:3*dim], r[3*dim:])
	}
	for ; i < len(out); i++ {
		out[i] = l2sq(q, buf[i*dim:i*dim+dim])
	}
}

// squaredNorm is the 4-way unrolled squared Euclidean norm. Matrix
// construction and the matrix-free PreparedQuery path both use it, so
// precomputed and on-the-fly norms are bit-identical.
func squaredNorm(a []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * a[i]
		s1 += a[i+1] * a[i+1]
		s2 += a[i+2] * a[i+2]
		s3 += a[i+3] * a[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * a[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// angularFromDot converts a dot product and the two Euclidean norms into
// the Angular distance 1 - cos, with the same zero-vector and clamping
// semantics as AngularDistance.
func angularFromDot(dot, na, nb float32) float32 {
	if na == 0 || nb == 0 {
		return 1
	}
	cos := dot / (na * nb)
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return 1 - cos
}

// PreparedQuery is a search query preprocessed for repeated distance
// evaluation: the vector plus its Euclidean norm, computed once per
// search rather than once per comparison (the scalar AngularDistance
// recomputes both norms on every call).
type PreparedQuery struct {
	metric Metric
	vec    Vector
	norm   float32
	// codes / codeNorm are the query quantized under the kernel's corpus
	// scales — populated only by a quantized kernel's Prepare, and read
	// only by quantized distance paths.
	codes    []int8
	codeNorm float32
}

// PrepareQuery preprocesses query for metric m. The query slice is
// retained (not copied) for the lifetime of the PreparedQuery.
func PrepareQuery(m Metric, query Vector) PreparedQuery {
	q := PreparedQuery{metric: m, vec: query}
	if m == Angular {
		q.norm = float32(math.Sqrt(float64(squaredNorm(query))))
	}
	return q
}

// Vec returns the underlying query vector.
func (q *PreparedQuery) Vec() Vector { return q.vec }

// Codes returns the query's int8 codes, or nil if the query was not
// prepared by a quantized kernel. Consumers that inspect per-dimension
// values during quantized traversal (togg's guided stage) read these
// instead of the float vector so they see the same representation the
// distance kernel does.
func (q *PreparedQuery) Codes() []int8 { return q.codes }

// DistanceTo evaluates the prepared query against an arbitrary vector
// (no Matrix required): the matrix-free kernel path BruteForce uses.
// The stored-vector norm is computed on the fly with the same unrolled
// accumulation Matrix construction uses, so results are bit-identical
// to Kernel.DistTo over a Matrix holding v.
func (q *PreparedQuery) DistanceTo(v Vector) float32 {
	if len(v) != len(q.vec) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.vec), len(v)))
	}
	switch q.metric {
	case L2:
		return l2sq(q.vec, v)
	case Angular:
		vn := float32(math.Sqrt(float64(squaredNorm(v))))
		return angularFromDot(dot4(q.vec, v), q.norm, vn)
	case InnerProduct:
		return -dot4(q.vec, v)
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", q.metric))
	}
}

// DistancesToFlat evaluates the prepared query against the len(out)
// rows laid end to end in rows, stride the query's dim, writing
// out[i] = DistanceTo(row i) bit for bit. It is the matrix-free full
// scan (the delta tier's contiguous live set): L2 runs Kernel.DistsAll's
// four-row loop, the other metrics DistanceTo per row. A rows length
// other than len(out) × dim panics.
func (q *PreparedQuery) DistancesToFlat(rows, out []float32) {
	dim := len(q.vec)
	if len(rows) != len(out)*dim {
		panic(fmt.Sprintf("vec: DistancesToFlat rows length %d != %d rows × dim %d", len(rows), len(out), dim))
	}
	if q.metric == L2 {
		l2sqAll(q.vec, rows, out)
		return
	}
	for i := range out {
		out[i] = q.DistanceTo(rows[i*dim : i*dim+dim])
	}
}

// Kernel evaluates distances between prepared queries and Matrix rows
// under one metric. It is stateless beyond the metric and the matrix
// reference, so a single Kernel is safe for concurrent searches.
//
// A quantized kernel (NewQuantizedKernel) evaluates over the matrix's
// SQ8 codes instead of the float32 rows: int32-accumulated code-space
// distances, comparable among themselves but not in the metric's units
// — ordering keys for traversal, with the final candidate head re-
// ranked on a float kernel. Both kernel flavors share one Matrix, so
// an index can hold both and pay for the rows once.
type Kernel struct {
	metric Metric
	mat    *Matrix
	// sq, when non-nil, switches every distance path to the int8
	// code-space kernels over this compressed tier.
	sq *SQ8
}

// NewKernel binds metric m to the rows of mat.
func NewKernel(m Metric, mat *Matrix) *Kernel {
	return &Kernel{metric: m, mat: mat}
}

// NewQuantizedKernel binds metric m to the SQ8 codes of mat, which must
// already carry a compressed tier (EnableSQ8 or AttachSQ8). It panics
// otherwise: a quantized kernel without codes is a construction bug,
// not a runtime condition.
func NewQuantizedKernel(m Metric, mat *Matrix) *Kernel {
	sq := mat.SQ8()
	if sq == nil {
		panic("vec: NewQuantizedKernel on a matrix without an SQ8 tier")
	}
	return &Kernel{metric: m, mat: mat, sq: sq}
}

// Metric returns the kernel's distance metric.
func (k *Kernel) Metric() Metric { return k.metric }

// Matrix returns the underlying corpus store.
func (k *Kernel) Matrix() *Matrix { return k.mat }

// Quantized reports whether this kernel evaluates over SQ8 codes.
func (k *Kernel) Quantized() bool { return k.sq != nil }

// Prepare preprocesses query once for this kernel's metric. A quantized
// kernel also quantizes the query under the corpus scales and, for
// Angular, precomputes its code-space norm.
func (k *Kernel) Prepare(query Vector) PreparedQuery {
	q := PrepareQuery(k.metric, query)
	if k.sq != nil {
		q.codes = k.sq.QuantizeQuery(query)
		if k.metric == Angular {
			q.codeNorm = codeNorm(q.codes)
		}
	}
	return q
}

// DistTo returns the distance from the prepared query to row. For
// Angular the stored-vector norm comes from the precomputed table.
func (k *Kernel) DistTo(q PreparedQuery, row int) float32 {
	if k.sq != nil {
		k.checkCodes(q)
		return k.distToQ(q, row)
	}
	r := k.mat.Row(row)
	if len(r) != len(q.vec) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.vec), len(r)))
	}
	switch k.metric {
	case L2:
		return l2sq(q.vec, r)
	case Angular:
		return angularFromDot(dot4(q.vec, r), q.norm, k.mat.norms[row])
	case InnerProduct:
		return -dot4(q.vec, r)
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}

// DistsTo evaluates the prepared query against each listed row, writing
// distances into out (len(out) must equal len(rows)). It is the batched
// entry point for candidate shortlists: the graph traversals score each
// expansion's unvisited neighbours through it (ann.KernelStore.Dists).
// The metric switch is hoisted out of the row loop, and each distance
// is bit-identical to DistTo's.
func (k *Kernel) DistsTo(q PreparedQuery, rows []uint32, out []float32) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("vec: DistsTo out length %d != rows %d", len(out), len(rows)))
	}
	if k.sq != nil {
		k.checkCodes(q)
		k.distsToQ(q, rows, out)
		return
	}
	k.checkDim(q)
	dim, buf := k.mat.dim, k.mat.buf
	switch k.metric {
	case L2:
		i := 0
		for ; i+4 <= len(rows); i += 4 {
			r := rows[i : i+4 : i+4]
			out[i], out[i+1], out[i+2], out[i+3] = l2sqRows4(q.vec,
				buf[int(r[0])*dim:int(r[0])*dim+dim], buf[int(r[1])*dim:int(r[1])*dim+dim],
				buf[int(r[2])*dim:int(r[2])*dim+dim], buf[int(r[3])*dim:int(r[3])*dim+dim])
		}
		for ; i < len(rows); i++ {
			out[i] = l2sq(q.vec, buf[int(rows[i])*dim:int(rows[i])*dim+dim])
		}
	case Angular:
		for i, r := range rows {
			out[i] = angularFromDot(dot4(q.vec, buf[int(r)*dim:int(r)*dim+dim]), q.norm, k.mat.norms[r])
		}
	case InnerProduct:
		for i, r := range rows {
			out[i] = -dot4(q.vec, buf[int(r)*dim:int(r)*dim+dim])
		}
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}

// DistsAll evaluates the prepared query against every row, writing
// distances into out (len(out) must equal Rows()) — the full-scan form
// exact search uses. The metric switch is hoisted out of the row loop.
func (k *Kernel) DistsAll(q PreparedQuery, out []float32) {
	if len(out) != k.mat.rows {
		panic(fmt.Sprintf("vec: DistsAll out length %d != rows %d", len(out), k.mat.rows))
	}
	if k.sq != nil {
		k.checkCodes(q)
		k.distsAllQ(q, out)
		return
	}
	k.checkDim(q)
	dim, buf := k.mat.dim, k.mat.buf
	switch k.metric {
	case L2:
		l2sqAll(q.vec, buf, out)
	case Angular:
		for i := range out {
			out[i] = angularFromDot(dot4(q.vec, buf[i*dim:i*dim+dim]), q.norm, k.mat.norms[i])
		}
	case InnerProduct:
		for i := range out {
			out[i] = -dot4(q.vec, buf[i*dim:i*dim+dim])
		}
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}

// checkDim validates the prepared query's dimensionality once per batch
// call (non-empty matrices only; row evaluation is vacuous otherwise).
func (k *Kernel) checkDim(q PreparedQuery) {
	if k.mat.rows > 0 && len(q.vec) != k.mat.dim {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.vec), k.mat.dim))
	}
}

// DistRows returns the distance between two stored rows, using the
// precomputed norms of both for Angular — the build-time kernel for
// neighbor-selection heuristics, pruning, and MST construction.
func (k *Kernel) DistRows(i, j int) float32 {
	if k.sq != nil {
		a, b := k.sq.Row(i), k.sq.Row(j)
		switch k.metric {
		case L2:
			return float32(l2sqI8(a, b))
		case Angular:
			return angularFromDot(float32(dotI8(a, b)), k.sq.norms[i], k.sq.norms[j])
		case InnerProduct:
			return -float32(dotI8(a, b))
		default:
			panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
		}
	}
	a, b := k.mat.Row(i), k.mat.Row(j)
	switch k.metric {
	case L2:
		return l2sq(a, b)
	case Angular:
		return angularFromDot(dot4(a, b), k.mat.norms[i], k.mat.norms[j])
	case InnerProduct:
		return -dot4(a, b)
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}

// ---- quantized paths ----------------------------------------------------
//
// Code-space distances are exact int32 accumulations widened to float32
// at the end (and, for Angular, normalized by the precomputed code
// norms through the same angularFromDot the float path uses). Every
// quantized consumer shares these paths, so quantized distances are
// internally consistent the same way float kernel distances are.

// checkCodes validates that the query was prepared by a quantized
// kernel over a matching corpus (non-empty tiers only).
func (k *Kernel) checkCodes(q PreparedQuery) {
	if k.sq.rows == 0 {
		return
	}
	if q.codes == nil {
		panic("vec: query not prepared by a quantized kernel")
	}
	if len(q.codes) != k.sq.dim {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.codes), k.sq.dim))
	}
}

// distToQ is the single-pair code-space distance.
func (k *Kernel) distToQ(q PreparedQuery, row int) float32 {
	r := k.sq.Row(row)
	switch k.metric {
	case L2:
		return float32(l2sqI8(q.codes, r))
	case Angular:
		return angularFromDot(float32(dotI8(q.codes, r)), q.codeNorm, k.sq.norms[row])
	case InnerProduct:
		return -float32(dotI8(q.codes, r))
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}

// distsToQ is the code-space shortlist batch, metric switch hoisted.
func (k *Kernel) distsToQ(q PreparedQuery, rows []uint32, out []float32) {
	dim, codes := k.sq.dim, k.sq.codes
	switch k.metric {
	case L2:
		for i, r := range rows {
			out[i] = float32(l2sqI8(q.codes, codes[int(r)*dim:int(r)*dim+dim]))
		}
	case Angular:
		for i, r := range rows {
			out[i] = angularFromDot(float32(dotI8(q.codes, codes[int(r)*dim:int(r)*dim+dim])), q.codeNorm, k.sq.norms[r])
		}
	case InnerProduct:
		for i, r := range rows {
			out[i] = -float32(dotI8(q.codes, codes[int(r)*dim:int(r)*dim+dim]))
		}
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}

// distsAllQ is the code-space full scan, metric switch hoisted.
func (k *Kernel) distsAllQ(q PreparedQuery, out []float32) {
	dim, codes := k.sq.dim, k.sq.codes
	switch k.metric {
	case L2:
		for i := range out {
			out[i] = float32(l2sqI8(q.codes, codes[i*dim:i*dim+dim]))
		}
	case Angular:
		for i := range out {
			out[i] = angularFromDot(float32(dotI8(q.codes, codes[i*dim:i*dim+dim])), q.codeNorm, k.sq.norms[i])
		}
	case InnerProduct:
		for i := range out {
			out[i] = -float32(dotI8(q.codes, codes[i*dim:i*dim+dim]))
		}
	default:
		panic(fmt.Sprintf("vec: unknown metric %d", k.metric))
	}
}
