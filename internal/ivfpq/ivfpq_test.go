package ivfpq

import (
	"math/rand"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

func buildTestIndex(t *testing.T, n int, cfg Config) (*Index, *dataset.Dataset) {
	t.Helper()
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: n, Queries: 20, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := Build(d.Vectors, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return idx, d
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(128); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Segments = 7 // does not divide 128
	if bad.Validate(128) == nil {
		t.Error("non-dividing segments must fail")
	}
	bad = c
	bad.NProbe = c.NList + 1
	if bad.Validate(128) == nil {
		t.Error("nprobe > nlist must fail")
	}
	bad = c
	bad.CodeBits = 9
	if bad.Validate(128) == nil {
		t.Error("codebits > 8 must fail")
	}
	bad = c
	bad.Metric = vec.Angular
	if bad.Validate(128) == nil {
		t.Error("non-L2 metric must fail")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	if _, err := Build(nil, DefaultConfig()); err == nil {
		t.Error("empty dataset must fail")
	}
}

func TestAllVectorsIndexed(t *testing.T) {
	idx, _ := buildTestIndex(t, 600, DefaultConfig())
	var total int
	for i := 0; i < idx.NLists(); i++ {
		total += idx.ListLen(i)
	}
	if total != idx.Len() {
		t.Errorf("postings %d != vectors %d", total, idx.Len())
	}
}

func TestRecallWithRerank(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProbe = 16
	idx, d := buildTestIndex(t, 1200, cfg)
	var sum float64
	for _, q := range d.Queries {
		exact := ann.BruteForce(vec.L2, d.Vectors, q, 10)
		approx := idx.Search(q, 10)
		sum += ann.Recall(approx, exact, 10)
	}
	recall := sum / float64(len(d.Queries))
	if recall < 0.75 {
		t.Errorf("IVF-PQ recall@10 = %.3f, want >= 0.75 with rerank", recall)
	}
}

func TestRerankImprovesRecall(t *testing.T) {
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 1000, Queries: 15, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	noRerank := DefaultConfig()
	noRerank.Rerank = 0
	noRerank.NProbe = 16
	a, err := Build(d.Vectors, noRerank)
	if err != nil {
		t.Fatal(err)
	}
	withRerank := noRerank
	withRerank.Rerank = 64
	b, err := Build(d.Vectors, withRerank)
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb float64
	for _, q := range d.Queries {
		exact := ann.BruteForce(vec.L2, d.Vectors, q, 10)
		ra += ann.Recall(a.Search(q, 10), exact, 10)
		rb += ann.Recall(b.Search(q, 10), exact, 10)
	}
	if rb < ra {
		t.Errorf("rerank reduced recall: %.3f -> %.3f", ra/15, rb/15)
	}
}

func TestNProbeMonotone(t *testing.T) {
	cfg := DefaultConfig()
	idx, d := buildTestIndex(t, 1000, cfg)
	measure := func(nprobe int) float64 {
		idx.SetNProbe(nprobe)
		var sum float64
		for _, q := range d.Queries {
			exact := ann.BruteForce(vec.L2, d.Vectors, q, 10)
			sum += ann.Recall(idx.Search(q, 10), exact, 10)
		}
		return sum / float64(len(d.Queries))
	}
	low := measure(2)
	high := measure(32)
	if high < low {
		t.Errorf("recall not monotone in nprobe: %.3f -> %.3f", low, high)
	}
}

func TestScanStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NProbe = 4
	idx, d := buildTestIndex(t, 500, cfg)
	_, st := idx.SearchStats(d.Queries[0], 10)
	if st.ListsProbed != 4 {
		t.Errorf("lists probed = %d, want 4", st.ListsProbed)
	}
	if st.CodesScanned <= 0 {
		t.Error("no codes scanned")
	}
	if st.BytesStreamed != int64(st.CodesScanned)*int64(idx.CodeBytes()) {
		t.Errorf("bytes %d inconsistent with %d codes x %d B",
			st.BytesStreamed, st.CodesScanned, idx.CodeBytes())
	}
	if st.Reranked == 0 {
		t.Error("rerank enabled but no rerank computations recorded")
	}
}

func TestKMeansBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Two well-separated blobs must produce two distinct centroids.
	points := make([]vec.Vector, 0, 40)
	for i := 0; i < 20; i++ {
		points = append(points, vec.Vector{float32(rng.NormFloat64()*0.1 + 10), 0})
		points = append(points, vec.Vector{float32(rng.NormFloat64()*0.1 - 10), 0})
	}
	cents := kMeans(points, 2, 10, rng)
	if len(cents) != 2 {
		t.Fatalf("centroid count = %d", len(cents))
	}
	if (cents[0][0] > 0) == (cents[1][0] > 0) {
		t.Errorf("centroids did not separate the blobs: %v %v", cents[0], cents[1])
	}
	// k > n clamps.
	few := kMeans(points[:3], 10, 5, rng)
	if len(few) != 3 {
		t.Errorf("k>n should clamp to n, got %d", len(few))
	}
}

func TestDeterministicBuild(t *testing.T) {
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 400, Queries: 3, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Build(d.Vectors, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(d.Vectors, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.NLists(); i++ {
		if a.ListLen(i) != b.ListLen(i) {
			t.Fatalf("list %d length differs across identical builds", i)
		}
	}
	ra := a.Search(d.Queries[0], 5)
	rb := b.Search(d.Queries[0], 5)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("search results differ across identical builds")
		}
	}
}

// At exhaustive width (every list probed, every candidate re-ranked)
// SearchFilter is "search everything, then drop the skipped IDs": the
// same IDs and distance bits.
func TestSearchFilterDropsSkipped(t *testing.T) {
	const n = 300
	cfg := DefaultConfig()
	cfg.NProbe, cfg.Rerank = cfg.NList, n
	idx, d := buildTestIndex(t, n, cfg)
	rng := rand.New(rand.NewSource(5))
	for _, q := range d.Queries {
		set := map[uint32]bool{}
		for id := 0; id < n; id++ {
			if rng.Intn(2) == 0 {
				set[uint32(id)] = true
			}
		}
		skip := func(id uint32) bool { return set[id] }
		var all []ann.Neighbor
		for _, nb := range idx.Search(q, n) {
			if !skip(nb.ID) {
				all = append(all, nb)
			}
		}
		for _, k := range []int{1, 10, n} {
			want := all[:min(k, len(all))]
			got := idx.SearchFilter(q, k, skip)
			if len(got) != len(want) {
				t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d result %d: %+v, want %+v", k, i, got[i], want[i])
				}
			}
		}
	}
}

// Regression: when Rerank < k, the reranked shortlist must be re-merged
// with the remaining ADC candidates so the search still returns
// min(k, candidates) results instead of truncating to the shortlist.
func TestRerankSmallerThanK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rerank = 5
	idx, d := buildTestIndex(t, 400, cfg)
	k := 20
	for _, q := range d.Queries {
		res, st := idx.SearchStats(q, k)
		// Every probed list contributes candidates; with 400 vectors in
		// 64 lists and 8 probes there are always >= k candidates.
		if st.CodesScanned < k {
			t.Fatalf("scan too small to test: %d candidates", st.CodesScanned)
		}
		if len(res) != k {
			t.Fatalf("Rerank=%d < k=%d returned %d results, want %d",
				cfg.Rerank, k, len(res), k)
		}
		if st.Reranked != cfg.Rerank {
			t.Fatalf("reranked %d, want %d", st.Reranked, cfg.Rerank)
		}
		if err := ann.Validate(res, idx.Len()); err != nil {
			t.Fatal(err)
		}
	}
	// Fewer candidates than k: a single probe of a small list must
	// still return every candidate it scanned, reranked.
	tiny := DefaultConfig()
	tiny.NList, tiny.NProbe, tiny.Rerank = 64, 1, 2
	idx2, d2 := buildTestIndex(t, 300, tiny)
	for _, q := range d2.Queries {
		res, st := idx2.SearchStats(q, k)
		want := st.CodesScanned
		if want > k {
			want = k
		}
		if len(res) != want {
			t.Fatalf("returned %d results, want min(k, candidates) = %d", len(res), want)
		}
		if err := ann.Validate(res, idx2.Len()); err != nil {
			t.Fatal(err)
		}
	}
}
