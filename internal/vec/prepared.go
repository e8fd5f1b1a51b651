package vec

import "fmt"

// This file is the matrix-free quantized query path: preparing a query
// against a known scale table and scoring it against one row of SQ8
// code bytes, with no SQ8 tier or Matrix in memory. It is what paged
// (beyond-RAM) node stores run on — they hold only the per-dimension
// scales resident and read code rows from mapped pages — and a
// quantized Kernel's Prepare is PrepareQuantized under its tier's
// scales. Both score through the one code-row scorer (codeDist), so
// paged and resident quantized distances are the same bits by
// construction.

// PrepareQuantized preprocesses query for metric m against a corpus
// quantized under the given per-dimension SQ8 scales. The result
// carries both the float query (for exact rerank via DistanceTo) and
// its code bytes and code norm (for code-space traversal). The query
// and scales slices are retained.
func PrepareQuantized(m Metric, query Vector, scales []float32) PreparedQuery {
	if len(scales) != len(query) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d scales", len(query), len(scales)))
	}
	q := PrepareQuery(m, query)
	q.codes = make([]byte, len(query))
	quantizeInto(scales, query, q.codes)
	q.codeNorm = codeNorm(q.codes)
	return q
}

// DistanceToCodeBytes evaluates the prepared query against one row of
// SQ8 code bytes as a blocks record stores them. The row's code norm is
// computed on the fly; integer accumulation makes it the norm an SQ8
// tier precomputes, so the result is Kernel.DistTo's on a quantized
// kernel over the same bytes. The query must carry codes
// (PrepareQuantized).
func (q *PreparedQuery) DistanceToCodeBytes(src []byte) float32 {
	if q.codes == nil {
		panic("vec: query not prepared with codes")
	}
	if len(src) != len(q.codes) {
		panic(fmt.Sprintf("vec: dim mismatch %d vs %d", len(q.codes), len(src)))
	}
	return q.codeDist(src, unknownNorm)
}
