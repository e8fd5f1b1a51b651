// Package trace defines the in-memory search trace that couples the ANNS
// algorithms to the platform simulators. The paper generates memory
// traces by instrumenting HNSW/DiskANN and feeds them to a trace-driven
// simulator (§VII-A "Simulation method"); this package is that interface.
//
// A trace records, for every query and every search iteration, the entry
// vertex expanded in that iteration and the candidate neighbor IDs whose
// distances were computed. Everything the simulators need — page
// accesses, LUN allocation, speculation overlap — derives from it.
package trace

// Iter is one search iteration of one query.
type Iter struct {
	// Entry is the vertex whose neighbor list was expanded.
	Entry uint32
	// Neighbors are the candidate vertex IDs whose feature vectors were
	// read and whose distances to the query were computed.
	Neighbors []uint32
}

// Query is the full trace of one query's search.
type Query struct {
	// QueryID indexes into the batch's query set.
	QueryID int
	// Iters are the search iterations in execution order.
	Iters []Iter
}

// Length returns the searching-trace length: the number of visited
// vertices whose distances were computed (the denominator of the paper's
// page-access ratio, Fig. 4a).
func (q *Query) Length() int {
	var n int
	for _, it := range q.Iters {
		n += len(it.Neighbors)
	}
	return n
}

// Batch is the trace of one batch of queries on one dataset/algorithm.
type Batch struct {
	Dataset string
	Algo    string
	Queries []Query
}

// TotalAccesses sums trace lengths over all queries.
func (b *Batch) TotalAccesses() int {
	var n int
	for i := range b.Queries {
		n += b.Queries[i].Length()
	}
	return n
}

// MaxIterations returns the longest per-query iteration count — the
// number of synchronised search rounds a batch-parallel platform runs.
func (b *Batch) MaxIterations() int {
	var m int
	for i := range b.Queries {
		if len(b.Queries[i].Iters) > m {
			m = len(b.Queries[i].Iters)
		}
	}
	return m
}
