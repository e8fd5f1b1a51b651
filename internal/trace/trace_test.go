package trace

import "testing"

func sampleBatch() *Batch {
	return &Batch{
		Dataset: "sift-1b",
		Algo:    "hnsw",
		Queries: []Query{
			{QueryID: 0, Iters: []Iter{
				{Entry: 5, Neighbors: []uint32{1, 2, 3}},
				{Entry: 2, Neighbors: []uint32{7, 8}},
			}},
			{QueryID: 1, Iters: []Iter{
				{Entry: 9, Neighbors: []uint32{2}},
			}},
		},
	}
}

func TestQueryStats(t *testing.T) {
	b := sampleBatch()
	q := &b.Queries[0]
	if got := q.Length(); got != 5 {
		t.Errorf("Length = %d, want 5", got)
	}
}

func TestBatchStats(t *testing.T) {
	b := sampleBatch()
	if got := b.TotalAccesses(); got != 6 {
		t.Errorf("TotalAccesses = %d, want 6", got)
	}
	if got := b.MaxIterations(); got != 2 {
		t.Errorf("MaxIterations = %d, want 2", got)
	}
	empty := &Batch{}
	if empty.TotalAccesses() != 0 || empty.MaxIterations() != 0 {
		t.Error("empty batch mishandled")
	}
}
