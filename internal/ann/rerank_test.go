package ann

import (
	"math"
	"math/rand"
	"testing"

	"ndsearch/internal/vec"
)

func rerankCorpus(t *testing.T, rows, dim int, seed int64) ([]vec.Vector, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, rows)
	for i := range data {
		data[i] = make(vec.Vector, dim)
		for d := range data[i] {
			data[i][d] = rng.Float32()*2 - 1
		}
	}
	return data, vec.NewMatrix(data)
}

// rerankStore wraps mat as the full-precision resident store rerank
// evaluates through.
func rerankStore(t *testing.T, m vec.Metric, mat *vec.Matrix) *KernelStore {
	t.Helper()
	st, err := NewKernelStore(m, mat, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// RerankExactStore over the full candidate list must reproduce the exact
// ordering BruteForce computes, with exact (not code-space) distances,
// regardless of how scrambled the code-space ordering was.
func TestRerankExactStoreMatchesBruteForce(t *testing.T) {
	const rows, dim, k = 64, 19, 10
	data, mat := rerankCorpus(t, rows, dim, 23)
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		st := rerankStore(t, m, mat)
		query := make(vec.Vector, dim)
		for d := range query {
			query[d] = 0.1 * float32(d%7)
		}
		// Candidates in a deliberately wrong order with garbage
		// distances — rerank must not trust either.
		cands := make([]Neighbor, rows)
		for i := range cands {
			cands[i] = Neighbor{ID: uint32(rows - 1 - i), Dist: -1}
		}
		got := RerankExactStore(st, query, cands, 0, k)
		want := BruteForce(m, data, query, k)
		if len(got) != len(want) {
			t.Fatalf("%v: got %d results, want %d", m, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("%v: result %d = %+v, want %+v", m, i, got[i], want[i])
			}
		}
		if err := Validate(got, rows); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestRerankExactStoreWidthClamping(t *testing.T) {
	const rows, dim = 32, 8
	_, mat := rerankCorpus(t, rows, dim, 29)
	st := rerankStore(t, vec.L2, mat)
	query := make(vec.Vector, dim)
	cands := make([]Neighbor, rows)
	for i := range cands {
		cands[i] = Neighbor{ID: uint32(i), Dist: float32(i)}
	}

	// width below k is raised to k: the result list must not shrink.
	if got := RerankExactStore(st, query, cands, 3, 10); len(got) != 10 {
		t.Fatalf("width 3, k 10: got %d results, want 10", len(got))
	}
	// width above the candidate count is clamped.
	if got := RerankExactStore(st, query, cands, 1000, 5); len(got) != 5 {
		t.Fatalf("width 1000: got %d results, want 5", len(got))
	}
	// Fewer candidates than k: min(k, candidates) results, same contract
	// as the traversals.
	if got := RerankExactStore(st, query, cands[:4], 0, 10); len(got) != 4 {
		t.Fatalf("4 candidates, k 10: got %d results, want 4", len(got))
	}
	if got := RerankExactStore(st, query, nil, 0, 10); len(got) != 0 {
		t.Fatalf("no candidates: got %d results, want 0", len(got))
	}

	// A narrow width restricts the pool: only the head is re-scored, so
	// every returned ID must come from cands[:width].
	for _, x := range RerankExactStore(st, query, cands, 8, 5) {
		if x.ID >= 8 {
			t.Fatalf("width 8 returned ID %d from outside the head", x.ID)
		}
	}
	// The input list must not be mutated.
	for i, c := range cands {
		if c.ID != uint32(i) || c.Dist != float32(i) {
			t.Fatalf("cands[%d] mutated to %+v", i, c)
		}
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	nan := float32(math.NaN())
	if err := Validate([]Neighbor{{ID: 0, Dist: 1}, {ID: 1, Dist: nan}}, 4); err == nil {
		t.Fatal("NaN distance accepted")
	}
	if err := Validate([]Neighbor{{ID: 0, Dist: nan}}, 4); err == nil {
		t.Fatal("lone NaN distance accepted")
	}
	if err := Validate([]Neighbor{{ID: 0, Dist: 1}, {ID: 1, Dist: 2}}, 4); err != nil {
		t.Fatalf("finite results rejected: %v", err)
	}
}
