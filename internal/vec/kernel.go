package vec

import (
	"fmt"
	"math"
)

// This file is the float32 layer: the 4-way unrolled float32 kernels,
// the PreparedQuery every scorer takes as its left operand, the
// float32-row scorer (rowDist), and the Kernel entries over a Matrix.
//
// vec scores through three scorers, one per row representation, and
// each holds its representation's one metric switch: rowDist (a
// float32 row and its norm, here), codeDist (an SQ8 code row and its
// code norm, sq8.go) and DistanceToStored (an F32/U8/I8 row at rest,
// stored.go). Every public distance entry is a loop over, or one call
// of, one of them. Resident rows pass their precomputed norm;
// matrix-free and paged rows pass unknownNorm and the scorer computes
// it with the same accumulation, so both give the same bits. Beside
// the switches, only the L2 four-row fast paths (DistsTo, rowsDist,
// DistancesToStored) and DistRows' direct l2sq test the metric.
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
// run AVX2 bodies on amd64 CPUs that have it (kernel_amd64.s) with
// l2sq4's exact bits; l2sq4 itself is the reference and the path
// everywhere else. Kernel.DistsTo over byte-valued operands takes the
// order-free FMA body instead (l2sqByteValued), exact there by
// construction and so l2sq4's bits too.

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

// l2sq4Rows4 is l2sq4 from q to four rows: the Go body of the four-row
// entry l2sqF32x4.
func l2sq4Rows4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	return l2sq4(q, r0), l2sq4(q, r1), l2sq4(q, r2), l2sq4(q, r3)
}

// l2sq is the float32 L2 entry every kernel path calls: l2sq4's bits,
// from the AVX2 body where the CPU has it (kernel_amd64.go). b is
// sliced to len(a) here, so a short row panics in Go before the
// assembly runs.
func l2sq(a, b []float32) float32 { return l2sqF32x1(a, b[:len(a)]) }

// l2sqRows4 is l2sq from q to four rows in one pass: four independent
// add chains whose loads overlap, each result l2sq's bits.
func l2sqRows4(q, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float32) {
	n := len(q)
	return l2sqF32x4(q, r0[:n], r1[:n], r2[:n], r3[:n])
}

// l2sqAll is l2sq from q to each of the len(out) rows laid end to end
// in buf (stride len(q)), four rows per pass: rowsDist's L2 loop.
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

// maxByteValuedDim is the largest dim at which byte-valued L2 is
// order-free: 258·255² = 16 776 450 < 2²⁴ (259·255² is not).
const maxByteValuedDim = 258

// byteValued reports whether every component of v is an integer in
// [0, 255] (NaN is not). When the query and a row both are and dim ≤
// maxByteValuedDim, every difference is an integer in [−255, 255],
// every square at most 255², and every partial sum of squares, under
// any grouping, an integer below 2²⁴: each is exact in float32, so no
// subtraction, product, sum or fused multiply-add rounds, and every
// accumulation order yields the exact integer — l2sq4's bits.
func byteValued(v []float32) bool {
	for _, x := range v {
		if !(x >= 0 && x <= 255 && x == float32(int32(x))) {
			return false
		}
	}
	return true
}

// l2sqByteValued is l2sq from q to each listed row of buf (stride
// len(q)) through the order-free body l2sqF32x4FMA, four rows per call;
// a one-to-three-row tail is padded by repeating its first row. Callers
// run it only where it is exact: q and every row byte-valued, dim ≤
// maxByteValuedDim.
func l2sqByteValued(q, buf []float32, rows []uint32, out []float32) {
	dim := len(q)
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		r := rows[i : i+4 : i+4]
		out[i], out[i+1], out[i+2], out[i+3] = l2sqF32x4FMA(q,
			buf[int(r[0])*dim:int(r[0])*dim+dim], buf[int(r[1])*dim:int(r[1])*dim+dim],
			buf[int(r[2])*dim:int(r[2])*dim+dim], buf[int(r[3])*dim:int(r[3])*dim+dim])
	}
	if rem := len(rows) - i; rem > 0 {
		r0 := rows[i]
		r1, r2 := r0, r0
		if rem > 1 {
			r1 = rows[i+1]
		}
		if rem > 2 {
			r2 = rows[i+2]
		}
		var d [4]float32
		d[0], d[1], d[2], d[3] = l2sqF32x4FMA(q,
			buf[int(r0)*dim:int(r0)*dim+dim], buf[int(r1)*dim:int(r1)*dim+dim],
			buf[int(r2)*dim:int(r2)*dim+dim], buf[int(r2)*dim:int(r2)*dim+dim])
		copy(out[i:], d[:rem])
	}
}

// squaredNorm is the 4-way unrolled squared Euclidean norm. Matrix
// construction and rowDist's on-the-fly norm both use it, so
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
// recomputes both norms on every call). It is the left operand of all
// three scorers.
type PreparedQuery struct {
	metric Metric
	vec    Vector
	norm   float32
	// byteValued is the query side of DistsTo's order-free gate: every
	// component an integer in [0, 255] and dim ≤ maxByteValuedDim.
	byteValued bool
	// codes / codeNorm are the query quantized under the corpus scales
	// (one two's-complement byte per code, like an SQ8 row) and their
	// code-space norm — set only by PrepareQuantized, read only by the
	// code-row scorer.
	codes    []byte
	codeNorm float32
}

// PrepareQuery preprocesses query for metric m. The query slice is
// retained (not copied) for the lifetime of the PreparedQuery.
func PrepareQuery(m Metric, query Vector) PreparedQuery {
	return PreparedQuery{metric: m, vec: query, norm: float32(math.Sqrt(float64(squaredNorm(query)))),
		byteValued: len(query) <= maxByteValuedDim && byteValued(query)}
}

// Vec returns the underlying query vector.
func (q *PreparedQuery) Vec() Vector { return q.vec }

// Codes returns the query's SQ8 code bytes, or nil if the query was not
// prepared quantized. Consumers that inspect per-dimension values
// during quantized traversal (togg's guided stage) read these instead
// of the float vector so they see the same representation the distance
// kernel does.
func (q *PreparedQuery) Codes() []byte { return q.codes }

// unknownNorm is the norm argument for a row whose norm is not
// precomputed (matrix-free and paged rows): the scorer's Angular arm
// then computes it from the row with the accumulation the precomputed
// tables use, so both give the same bits. Norms are never negative.
const unknownNorm = -1

// rowDist is the float32-row scorer, the one metric switch over rows
// held as float32: the distance from q to row r, whose Euclidean norm
// is rn (or unknownNorm). Callers check the dimension.
func (q *PreparedQuery) rowDist(r []float32, rn float32) float32 {
	switch q.metric {
	case L2:
		return l2sq(q.vec, r)
	case Angular:
		if rn < 0 {
			rn = float32(math.Sqrt(float64(squaredNorm(r))))
		}
		return angularFromDot(dot4(q.vec, r), q.norm, rn)
	case InnerProduct:
		return -dot4(q.vec, r)
	}
	panic(fmt.Sprintf("vec: unknown metric %d", q.metric))
}

// rowsDist is rowDist from q to each of the len(out) rows laid end to
// end in buf (stride len(q.vec)), each row's norm computed on the fly.
// L2 runs l2sqAll's four-row loop instead, with the same bits.
func (q *PreparedQuery) rowsDist(buf, out []float32) {
	if q.metric == L2 {
		l2sqAll(q.vec, buf, out)
		return
	}
	dim := len(q.vec)
	for i := range out {
		out[i] = q.rowDist(buf[i*dim:i*dim+dim], unknownNorm)
	}
}

// DistanceTo evaluates the prepared query against an arbitrary vector
// (no Matrix required): the matrix-free path BruteForce uses. The
// vector's norm is computed on the fly with the accumulation Matrix
// construction uses, so results are bit-identical to Kernel.DistTo
// over a Matrix holding v.
func (q *PreparedQuery) DistanceTo(v Vector) float32 {
	if len(v) != len(q.vec) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.vec), len(v)))
	}
	return q.rowDist(v, unknownNorm)
}

// DistancesToFlat evaluates the prepared query against the len(out)
// rows laid end to end in rows, stride the query's dim, writing
// out[i] = DistanceTo(row i) bit for bit. It is the matrix-free full
// scan (the delta tier's contiguous live set). A rows length other than
// len(out) × dim panics.
func (q *PreparedQuery) DistancesToFlat(rows, out []float32) {
	if dim := len(q.vec); len(rows) != len(out)*dim {
		panic(fmt.Sprintf("vec: DistancesToFlat rows length %d != %d rows × dim %d", len(rows), len(out), dim))
	}
	q.rowsDist(rows, out)
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
	// sq, when non-nil, switches every distance path to the code-row
	// scorer over this compressed tier.
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

// Prepare preprocesses query once for this kernel's metric: a quantized
// kernel's query is PrepareQuantized under the corpus scales.
func (k *Kernel) Prepare(query Vector) PreparedQuery {
	if k.sq != nil {
		return PrepareQuantized(k.metric, query, k.sq.scales)
	}
	return PrepareQuery(k.metric, query)
}

// check validates, once per call, that q was prepared for this
// kernel's rows: matching dim and, for a quantized kernel, codes
// (non-empty matrices only; row evaluation is vacuous otherwise).
func (k *Kernel) check(q *PreparedQuery) {
	if k.mat.rows == 0 {
		return
	}
	if len(q.vec) != k.mat.dim {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.vec), k.mat.dim))
	}
	if k.sq != nil && len(q.codes) != k.mat.dim {
		panic("vec: query not prepared by a quantized kernel")
	}
}

// DistTo returns the distance from the prepared query to row, with the
// row's norm read from the precomputed table.
func (k *Kernel) DistTo(q PreparedQuery, row int) float32 {
	k.check(&q)
	if k.sq != nil {
		return q.codeDist(k.sq.Row(row), k.sq.norms[row])
	}
	return q.rowDist(k.mat.Row(row), k.mat.norms[row])
}

// DistsTo evaluates the prepared query against each listed row, writing
// distances into out (len(out) must equal len(rows)). It is the batched
// entry point for candidate shortlists: the graph traversals score each
// expansion's unvisited neighbours through it (ann.KernelStore.Dists).
// Float L2 scores four rows per pass (l2sqRows4), through the
// order-free FMA body when the query and the matrix are both
// byte-valued and the CPU has FMA; every distance is bit-identical to
// DistTo's.
func (k *Kernel) DistsTo(q PreparedQuery, rows []uint32, out []float32) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("vec: DistsTo out length %d != rows %d", len(out), len(rows)))
	}
	k.check(&q)
	if k.sq != nil {
		for i, r := range rows {
			out[i] = q.codeDist(k.sq.Row(int(r)), k.sq.norms[r])
		}
		return
	}
	dim, buf := k.mat.dim, k.mat.buf
	i := 0
	if k.metric == L2 {
		if useFMA && q.byteValued && k.mat.byteValued {
			l2sqByteValued(q.vec, buf, rows, out)
			return
		}
		for ; i+4 <= len(rows); i += 4 {
			r := rows[i : i+4 : i+4]
			out[i], out[i+1], out[i+2], out[i+3] = l2sqRows4(q.vec,
				buf[int(r[0])*dim:int(r[0])*dim+dim], buf[int(r[1])*dim:int(r[1])*dim+dim],
				buf[int(r[2])*dim:int(r[2])*dim+dim], buf[int(r[3])*dim:int(r[3])*dim+dim])
		}
	}
	for ; i < len(rows); i++ {
		r := rows[i]
		out[i] = q.rowDist(buf[int(r)*dim:int(r)*dim+dim], k.mat.norms[r])
	}
}

// DistRows returns the distance between two stored rows — the
// build-time kernel for neighbor-selection heuristics, pruning, and MST
// construction. Row i is prepared as a query with its precomputed norm
// and scored against row j by the same scorer as DistTo; float L2, which
// every graph build runs, calls l2sq directly.
func (k *Kernel) DistRows(i, j int) float32 {
	if k.sq != nil {
		q := PreparedQuery{metric: k.metric, codes: k.sq.Row(i), codeNorm: k.sq.norms[i]}
		return q.codeDist(k.sq.Row(j), k.sq.norms[j])
	}
	a, b := k.mat.Row(i), k.mat.Row(j)
	if k.metric == L2 {
		return l2sq(a, b)
	}
	q := PreparedQuery{metric: k.metric, vec: a, norm: k.mat.norms[i]}
	return q.rowDist(b, k.mat.norms[j])
}
