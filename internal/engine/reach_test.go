// The oracle checks what single builds answer, so the race detector
// adds nothing to it; under -race its builds at 8 000 rows take over six
// minutes on two cores, past go test's default package timeout beside
// the engine's own race tests.

//go:build !race

package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
)

// TestGraphFamiliesReachEveryRow is the reachability oracle: every graph
// family the registry serves, built as shard 0 at a size it is served
// at, must let a search from its entry reach every row. A graph that
// falls into pieces answers with the wrong neighbours and no error, so
// the test checks the graph itself (a BFS over the store's adjacency),
// then that sampled base rows find themselves, then recall@10.
//
// Both sizes lie above the point where an exact K-NN base graph falls
// apart on these clustered corpora (a cluster holding more than K
// rows). sift-1b at dataset seed 7 is the corpus on which DiskANN's two
// RobustPrune passes leave one row no edge points to.
//
// Two recorded defects (ROADMAP item 13) are not asserted:
//   - DiskANN on fashion-mnist and on sift-1b seed 7 is skipped: its
//     graph does not reach every row (on fashion-mnist it falls into
//     pieces and reads recall@10 ≈ 0.1).
//   - Self-query misses on fashion-mnist are logged, in every family:
//     its ten 784-d clusters make a row's in-cluster distances nearly
//     equal, so pruning keeps short edges only and some rows keep a
//     single in-edge that a beam at the served width misses.
func TestGraphFamiliesReachEveryRow(t *testing.T) {
	n := 8000
	if testing.Short() {
		n = 2000
	}
	const k, queries, selfQueries = 10, 100, 256
	type corpus struct {
		prof dataset.Profile
		seed int64
	}
	var corpora []corpus
	for _, p := range dataset.Profiles() {
		corpora = append(corpora, corpus{p, 1})
	}
	corpora = append(corpora, corpus{dataset.Sift1B(), 7})
	fashion := dataset.FashionMNIST().Name
	for _, c := range corpora {
		d, err := dataset.Generate(c.prof, dataset.GenConfig{N: n, Queries: queries, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"hnsw", "diskann", "hcnng", "togg"} {
			t.Run(fmt.Sprintf("%s/seed%d/%s", c.prof.Name, c.seed, algo), func(t *testing.T) {
				if algo == "diskann" && (c.prof.Name == fashion || c.seed == 7) {
					t.Skip("recorded defect: DiskANN's graph does not reach every row of this corpus")
				}
				t.Parallel()
				build, err := BuilderByName(algo, c.prof.Metric, 1)
				if err != nil {
					t.Fatal(err)
				}
				idx, err := build(0, d.Vectors)
				if err != nil {
					t.Fatal(err)
				}
				entry := idx.(interface{ Entry() uint32 }).Entry()
				if got := ann.CopyGraph(idx.Store()).Reach(make([]bool, n), entry); got != n {
					t.Errorf("BFS from entry %d reaches %d of %d rows", entry, got, n)
				}
				rng := rand.New(rand.NewSource(c.seed))
				missed := 0
				for range selfQueries {
					r := uint32(rng.Intn(n))
					if !slices.ContainsFunc(idx.Search(d.Vectors[r], k), func(nb ann.Neighbor) bool { return nb.ID == r }) {
						missed++
					}
				}
				if missed > 0 {
					report := t.Errorf
					if c.prof.Name == fashion {
						report = t.Logf
					}
					report("%d of %d base rows searched as queries miss themselves in their top %d", missed, selfQueries, k)
				}
				var sum float64
				for _, q := range d.Queries {
					sum += ann.Recall(idx.Search(q, k), ann.BruteForce(c.prof.Metric, d.Vectors, q, k), k)
				}
				if recall := sum / float64(len(d.Queries)); recall < 0.90 {
					t.Errorf("recall@%d = %.4f, want >= 0.90", k, recall)
				}
			})
		}
	}
}
