package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/ivfpq"
	"ndsearch/internal/obs"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// exhaustiveBuilder returns a Builder whose searches are effectively
// exhaustive on small corpora (search width >= corpus size), so the
// approximate families return the exact top-k and the generational
// merge can be compared against a brute-force model, not just recall.
func exhaustiveBuilder(t *testing.T, algo string, m vec.Metric, seed int64) Builder {
	t.Helper()
	switch algo {
	case "exact":
		return func(_ int, data []vec.Vector) (ann.Index, error) {
			return ann.NewExact(m, data), nil
		}
	case "hnsw":
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			return hnsw.Build(data, hnsw.Config{
				M: 8, EfConstruction: 128, EfSearch: 256,
				Metric: m, Seed: seed + int64(shard),
			})
		}
	case "diskann":
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			return vamana.Build(data, vamana.Config{
				R: 16, L: 128, LSearch: 256, Alpha: 1.2,
				Metric: m, Seed: seed + int64(shard),
			})
		}
	case "hcnng":
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			return hcnng.Build(data, hcnng.Config{
				Clusterings: 8, LeafSize: 64, MaxDegree: 16, LSearch: 256,
				Metric: m, Seed: seed + int64(shard),
			})
		}
	case "togg":
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			return togg.Build(data, togg.Config{
				K: 8, GuideDims: 8, GuideHops: 64, LSearch: 256,
				Metric: m, Seed: seed + int64(shard),
			})
		}
	case "ivfpq":
		return func(shard int, data []vec.Vector) (ann.Index, error) {
			return ivfpq.Build(data, ivfpq.Config{
				NList: 4, NProbe: 4, Segments: 8, CodeBits: 6,
				Rerank: 4096, KMeansIters: 8, Metric: m, Seed: seed + int64(shard),
			})
		}
	default:
		t.Fatalf("unknown algo %q", algo)
		return nil
	}
}

// modelTopK is the from-scratch exact reference: brute force over the
// merged-corpus model (external IDs), folded through the same
// (distance, ID) total order the engine merge uses.
func modelTopK(m vec.Metric, model map[uint32]vec.Vector, q vec.Vector, k int) []ann.Neighbor {
	pq := vec.PrepareQuery(m, q)
	f := ann.NewFrontier(k)
	for id, v := range model {
		f.PushResult(ann.Neighbor{ID: id, Dist: pq.DistanceTo(v)})
	}
	return f.Results()
}

// checkAgainstModel compares every query's engine top-k against the
// model, exactly (values and order, not just recall).
func checkAgainstModel(t *testing.T, e *Engine, m vec.Metric, model map[uint32]vec.Vector,
	queries []vec.Vector, k int, stage string) {
	t.Helper()
	if e.Len() != len(model) {
		t.Fatalf("%s: engine Len %d, model has %d", stage, e.Len(), len(model))
	}
	res, _ := e.SearchBatch(queries, k)
	for qi, got := range res {
		if err := ann.ValidateIn(got, func(id uint32) bool { _, ok := model[id]; return ok }); err != nil {
			t.Fatalf("%s: query %d: %v", stage, qi, err)
		}
		want := modelTopK(m, model, queries[qi], k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d: engine %v, model %v", stage, qi, got, want)
		}
	}
}

// TestMutableEngineMatchesModel is the PR's acceptance property: after
// any interleaving of upserts, deletes (including delete-then-reinsert
// of the same ID), and compactions, the engine's top-k equals a
// from-scratch exact rebuild of the merged corpus — for every family,
// every metric the family supports, and several k.
func TestMutableEngineMatchesModel(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 96, Queries: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 24 // base corpus size; the rest of the pool feeds upserts
	base := pool.Vectors[:n0]
	spare := pool.Vectors[n0:]
	queries := pool.Queries

	metricsFor := func(algo string) []vec.Metric {
		switch algo {
		case "ivfpq": // compressed-domain family is L2-only
			return []vec.Metric{vec.L2}
		case "diskann":
			// RobustPrune's alpha*d(best,c) <= d(p,c) rule assumes metric
			// distances; under MIPS (negated dot products) it over-prunes
			// and can disconnect tiny graphs, so exhaustive-width search
			// is not exact for inner product and the family is exercised
			// on the metrics where it is.
			return []vec.Metric{vec.L2, vec.Angular}
		}
		return []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct}
	}

	for _, algo := range Algos() {
		for _, m := range metricsFor(algo) {
			for _, k := range []int{1, 3, 10} {
				t.Run(fmt.Sprintf("%s/m%d/k%d", algo, m, k), func(t *testing.T) {
					e, err := New(base, Config{
						Shards: 3, Workers: 2,
						Builder: exhaustiveBuilder(t, algo, m, 1),
					})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(e.Close)

					model := make(map[uint32]vec.Vector, n0)
					for i, v := range base {
						model[uint32(i)] = v
					}
					upsert := func(id uint32, v vec.Vector) {
						t.Helper()
						if err := e.Upsert(id, v); err != nil {
							t.Fatal(err)
						}
						model[id] = v
					}
					del := func(id uint32) {
						t.Helper()
						_, inModel := model[id]
						was, err := e.Delete(id)
						if err != nil {
							t.Fatal(err)
						}
						if was != inModel {
							t.Fatalf("Delete(%d) reported live=%v, model says %v", id, was, inModel)
						}
						delete(model, id)
					}
					compact := func() {
						t.Helper()
						if err := e.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					check := func(stage string) {
						t.Helper()
						checkAgainstModel(t, e, m, model, queries, k, stage)
					}

					check("pure-read")
					upsert(uint32(n0), spare[0])
					upsert(uint32(n0+1), spare[1])
					check("delta inserts")
					upsert(2, spare[2]) // overwrite a base vector
					check("base overwrite")
					del(0)
					del(5)
					del(uint32(n0 + 1)) // delta-only entry
					check("deletes")
					upsert(0, spare[3]) // delete-then-reinsert of a base ID
					check("reinsert after delete")

					compact()
					if gen := e.MutStats().Generation; gen != 1 {
						t.Fatalf("generation after first compact = %d", gen)
					}
					check("after compact")

					// Second round against the compacted (non-identity ID
					// table) base, with a sparse far-out ID.
					upsert(1000, spare[4])
					del(2)
					check("writes on compacted base")
					del(1000)
					upsert(1000, spare[5]) // delete-then-reinsert of a delta ID
					check("reinsert sparse id")
					compact()
					check("after second compact")

					// Mutations after the engine has a translated ID table.
					del(uint32(n0))
					upsert(7, spare[6])
					check("final")
				})
			}
		}
	}
}

// recordingIndex records the k and the presence of a skip predicate of
// every shard search the engine runs through it. It keeps the wrapped
// index's Store, which compaction reads the corpus back through.
type recordingIndex struct {
	ann.Index
	rec *shardCalls
}

type shardCalls struct {
	mu       sync.Mutex
	ks       map[int]int
	filtered map[bool]int
}

func (r recordingIndex) SearchFilter(q vec.Vector, k int, skip func(uint32) bool) []ann.Neighbor {
	r.rec.mu.Lock()
	r.rec.ks[k]++
	r.rec.filtered[skip != nil]++
	r.rec.mu.Unlock()
	return r.Index.SearchFilter(q, k, skip)
}

func (c *shardCalls) reset() {
	c.mu.Lock()
	c.ks, c.filtered = map[int]int{}, map[bool]int{}
	c.mu.Unlock()
}

// Every shard task searches at the caller's k, never widened by the
// shadow-set size, with the tombstone predicate exactly when the delta
// shadows something: nil on an empty delta (the pure-read path),
// non-nil with 300 shadows, before and after a compaction gives the
// base a translated ID table. The filtered results stay exact against
// the model.
func TestShardSearchesRunAtK(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 800, Queries: 8, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	const n0, k = 500, 10
	base, spare, queries := pool.Vectors[:n0], pool.Vectors[n0:], pool.Queries
	rec := &shardCalls{}
	rec.reset()
	inner := exhaustiveBuilder(t, "hnsw", vec.L2, 3)
	e, err := New(base, Config{Shards: 2, Workers: 2, Builder: func(shard int, data []vec.Vector) (ann.Index, error) {
		idx, err := inner(shard, data)
		if err != nil {
			return nil, err
		}
		return recordingIndex{Index: idx, rec: rec}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	model := make(map[uint32]vec.Vector, n0)
	for i, v := range base {
		model[uint32(i)] = v
	}
	expect := func(stage string, filtered bool) {
		t.Helper()
		rec.reset()
		checkAgainstModel(t, e, vec.L2, model, queries, k, stage)
		tasks := len(queries) * e.Shards()
		if rec.ks[k] != tasks || len(rec.ks) != 1 {
			t.Fatalf("%s: shard searches by k %v, want all %d at k=%d", stage, rec.ks, tasks, k)
		}
		if rec.filtered[filtered] != tasks {
			t.Fatalf("%s: shard searches by predicate presence %v, want all %d filtered=%v", stage, rec.filtered, tasks, filtered)
		}
	}

	expect("empty delta", false)
	for i := 0; i < 100; i++ {
		id := uint32(i)
		if err := e.Upsert(id, spare[i]); err != nil { // overwrite a base vector
			t.Fatal(err)
		}
		model[id] = spare[i]
		if _, err := e.Delete(id + 100); err != nil {
			t.Fatal(err)
		}
		delete(model, id+100)
		if err := e.Upsert(id+n0, spare[100+i]); err != nil { // new ID
			t.Fatal(err)
		}
		model[id+n0] = spare[100+i]
	}
	if got := e.DeltaPressure(); got != 300 {
		t.Fatalf("shadow set %d, want 300", got)
	}
	expect("300 shadows", true)

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	expect("compacted, empty delta", false)
	// Shadow base IDs on either side of the deleted gap, so the predicate
	// must translate through the new generation's ID table.
	for _, id := range []uint32{99, 200, 450, n0 + 5} {
		if _, err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
	}
	if err := e.Upsert(n0+6, spare[250]); err != nil {
		t.Fatal(err)
	}
	model[n0+6] = spare[250]
	expect("writes on compacted base", true)
}

// TestCompactIsSingleFlightAndIdempotent covers the cheap invariants:
// an empty delta compacts to a no-op, and the generation number only
// moves when something drained.
func TestCompactNoOpOnCleanDelta(t *testing.T) {
	e := exactEngine(t, testData(t, 40, 1).Vectors, vec.L2, 2, 2)
	if err := e.Compact(); err != nil {
		t.Fatalf("clean compact: %v", err)
	}
	if gen := e.MutStats().Generation; gen != 0 {
		t.Fatalf("no-op compact advanced generation to %d", gen)
	}
	if err := e.Upsert(5, make(vec.Vector, e.Dim())); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if gen := e.MutStats().Generation; gen != 1 {
		t.Fatalf("real compact left generation at %d", gen)
	}
}

func TestCompactRefusesEmptyCorpus(t *testing.T) {
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 4, Queries: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{
		Shards: 1, Workers: 1, Builder: exhaustiveBuilder(t, "exact", vec.L2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for id := uint32(0); id < 4; id++ {
		if _, err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if e.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", e.Len())
	}
	if err := e.Compact(); err == nil {
		t.Fatal("compacting a fully deleted corpus succeeded")
	}
	// The failed compaction left the delta as it was: the engine still
	// serves (zero results) and still accepts writes.
	if res := e.Search(d.Queries[0], 5); len(res) != 0 {
		t.Fatalf("deleted corpus returned %v", res)
	}
	if err := e.Upsert(1, d.Vectors[1]); err != nil {
		t.Fatal(err)
	}
	if got := e.Search(d.Vectors[1], 1); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("post-failure upsert not served: %v", got)
	}
}

// buildGate holds a compaction's shard builds inside the capture→swap
// window: once armed, every build announces itself on entered (closed by
// the first) and blocks until release closes, then fails if fail is set.
type buildGate struct {
	armed   atomic.Bool
	once    sync.Once
	entered chan struct{}
	release chan struct{}
	fail    bool
}

func newBuildGate(fail bool) *buildGate {
	return &buildGate{entered: make(chan struct{}), release: make(chan struct{}), fail: fail}
}

// wrap returns inner behind the gate; builds pass straight through until
// the gate is armed, so the engine's initial build is never held.
func (g *buildGate) wrap(inner Builder) Builder {
	return func(shard int, data []vec.Vector) (ann.Index, error) {
		if g.armed.Load() {
			g.once.Do(func() { close(g.entered) })
			<-g.release
			if g.fail {
				return nil, errors.New("gated build failed")
			}
		}
		return inner(shard, data)
	}
}

// startCompact arms the gate, starts Compact in the background, and
// returns once the compaction is blocked in its shard builds; the
// returned function opens the gate and yields Compact's result.
func (g *buildGate) startCompact(e *Engine) (finish func() error) {
	g.armed.Store(true)
	errc := make(chan error, 1)
	go func() { errc <- e.Compact() }()
	<-g.entered
	return func() error {
		close(g.release)
		err := <-errc
		g.armed.Store(false)
		return err
	}
}

// TestWritesDuringCompactionMatchModel lands every kind of write inside
// the window between a compaction's capture and its swap — while the new
// generation is being built from state those writes supersede — and
// checks the engine against the brute-force model before, during, and
// after the swap, for a build that succeeds and one that fails.
func TestWritesDuringCompactionMatchModel(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 96, Queries: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 24
	base, spare, queries := pool.Vectors[:n0], pool.Vectors[n0:], pool.Queries
	for _, algo := range []string{"exact", "hnsw"} {
		for _, fail := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/fail=%t", algo, fail), func(t *testing.T) {
				gate := newBuildGate(fail)
				e, err := New(base, Config{
					Shards: 3, Workers: 2,
					Builder: gate.wrap(exhaustiveBuilder(t, algo, vec.L2, 1)),
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)

				model := make(map[uint32]vec.Vector, n0)
				for i, v := range base {
					model[uint32(i)] = v
				}
				upsert := func(id uint32, v vec.Vector) {
					t.Helper()
					if err := e.Upsert(id, v); err != nil {
						t.Fatal(err)
					}
					model[id] = v
				}
				del := func(id uint32) {
					t.Helper()
					_, inModel := model[id]
					if was, err := e.Delete(id); err != nil || was != inModel {
						t.Fatalf("Delete(%d) = %v, %v; model says live=%v", id, was, err, inModel)
					}
					delete(model, id)
				}
				check := func(stage string) {
					t.Helper()
					for _, k := range []int{1, 3, 10} {
						checkAgainstModel(t, e, vec.L2, model, queries, k, fmt.Sprintf("%s/k%d", stage, k))
					}
				}

				// State the compaction captures.
				upsert(n0, spare[0])   // delta entry, overwritten in flight
				upsert(n0+1, spare[1]) // delta entry, deleted in flight
				upsert(n0+2, spare[2]) // delta entry, overwritten then deleted in flight
				upsert(3, spare[3])    // base overwrite, kept
				del(4)                 // tombstone, re-inserted in flight
				del(5)                 // tombstone, kept
				check("before")

				finish := gate.startCompact(e)
				upsert(n0, spare[4])
				del(n0 + 1)
				upsert(n0+2, spare[5])
				del(n0 + 2)
				upsert(4, spare[6])
				del(6) // untouched base vector
				upsert(n0+10, spare[7])
				del(n0 + 10)
				upsert(7, spare[8]) // base vector overwritten twice
				upsert(7, spare[9])
				check("during")

				err = finish()
				wantGen := 1
				if fail {
					wantGen = 0
					if err == nil {
						t.Fatal("gated failing build compacted")
					}
				} else if err != nil {
					t.Fatal(err)
				}
				if st := e.MutStats(); st.Generation != wantGen || st.Compacting {
					t.Fatalf("after swap: %+v, want generation %d", st, wantGen)
				}
				check("after swap")

				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
				check("after second compact")
				if st := e.MutStats(); st.DeltaLive != 0 || st.DeltaTombstones != 0 || st.BaseTombstones != 0 {
					t.Fatalf("delta not clean after second compact: %+v", st)
				}
			})
		}
	}
}

// A delete of an already-deleted base ID while a compaction is in flight
// is a no-op: it must not leave a tombstone the swap cannot clear, which
// would keep Save refusing and every search off the pure-read merge.
func TestRepeatDeleteDuringCompactionLeavesNoTombstone(t *testing.T) {
	d := testData(t, 30, 2)
	gate := newBuildGate(false)
	e, err := New(d.Vectors, Config{
		Shards: 2, Workers: 2, Builder: gate.wrap(exhaustiveBuilder(t, "exact", vec.L2, 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if was, err := e.Delete(9); err != nil || !was {
		t.Fatalf("Delete(9) = %v, %v", was, err)
	}
	finish := gate.startCompact(e)
	if was, err := e.Delete(9); err != nil || was {
		t.Fatalf("repeated Delete(9) = %v, %v", was, err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	if st := e.MutStats(); st.DeltaLive != 0 || st.DeltaTombstones != 0 || st.BaseTombstones != 0 {
		t.Fatalf("delta not clean after the swap: %+v", st)
	}
	if err := e.Save(t.TempDir()); err != nil {
		t.Fatalf("Save after the swap: %v", err)
	}
	tr := obs.NewTrace()
	e.SearchBatchOpts(d.Queries, 5, SearchOptions{Trace: tr})
	if n := stageSet(tr.Spans())["merge_delta"]; n != 0 {
		t.Fatalf("clean engine still merges the delta tier (%d merge_delta spans)", n)
	}
}

func TestSaveRejectsDirtyDelta(t *testing.T) {
	e := exactEngine(t, testData(t, 30, 1).Vectors, vec.L2, 2, 2)
	if err := e.Upsert(99, make(vec.Vector, e.Dim())); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(t.TempDir()); err == nil {
		t.Fatal("Save accepted a dirty delta tier")
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(t.TempDir()); err != nil {
		t.Fatalf("Save after Compact: %v", err)
	}
}

// TestGenerationalPersistence drives the full on-disk protocol: load a
// saved engine (gen-000000 + CURRENT), mutate, compact (gen-000001
// replaces gen-000000), reload from the same directory, and get
// identical results; a second compaction retires gen-000001. After the
// save and after each compaction the directory holds exactly CURRENT
// and the generation it names.
func TestGenerationalPersistence(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 80, Queries: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 40
	base, spare, queries := pool.Vectors[:n0], pool.Vectors[n0:], pool.Queries
	builder, err := BuilderWithOpts("hnsw", vec.L2, 5, IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := New(base, Config{
		Shards: 2, Workers: 2, Builder: builder,
		Meta: Meta{Algo: "hnsw", Dataset: "sift-1b", Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	onlyGeneration := func(num int) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ent := range entries {
			names = append(names, ent.Name())
		}
		if want := []string{snapshot.CurrentName, snapshot.GenerationName(num)}; !slices.Equal(names, want) {
			t.Fatalf("directory holds %v, want %v", names, want)
		}
	}
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	built.Close()
	onlyGeneration(0)

	e, man, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	if man.Generation != 0 {
		t.Fatalf("saved manifest generation = %d", man.Generation)
	}

	model := make(map[uint32]vec.Vector, n0)
	for i, v := range base {
		model[uint32(i)] = v
	}
	mustUpsert := func(id uint32, v vec.Vector) {
		t.Helper()
		if err := e.Upsert(id, v); err != nil {
			t.Fatal(err)
		}
		model[id] = v
	}
	mustUpsert(uint32(n0), spare[0])
	if _, err := e.Delete(3); err != nil {
		t.Fatal(err)
	}
	delete(model, uint32(3))

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, e, vec.L2, model, queries, 10, "after persisted compact")

	// On-disk shape: CURRENT names gen-000001, which holds a manifest.
	name, ok, err := snapshot.ReadCurrent(dir)
	if err != nil || !ok || name != snapshot.GenerationName(1) {
		t.Fatalf("CURRENT after compact: name=%q ok=%v err=%v", name, ok, err)
	}
	onlyGeneration(1)

	// A fresh load of the directory serves the compacted generation,
	// byte-identically, and reports the right generation number.
	res, _ := e.SearchBatch(queries, 10)
	e2, man2, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e2.Close)
	if man2.Generation != 1 {
		t.Fatalf("reloaded generation = %d", man2.Generation)
	}
	if e2.MutStats().Generation != 1 {
		t.Fatalf("reloaded engine generation = %d", e2.MutStats().Generation)
	}
	res2, _ := e2.SearchBatch(queries, 10)
	if !reflect.DeepEqual(res, res2) {
		t.Fatal("reloaded engine diverges from the engine that compacted")
	}
	checkAgainstModel(t, e2, vec.L2, model, queries, 10, "reloaded")

	// The reloaded engine keeps mutating and compacting: generation 2
	// appears, generation 1 is retired.
	if err := e2.Upsert(uint32(n0+1), spare[1]); err != nil {
		t.Fatal(err)
	}
	model[uint32(n0+1)] = spare[1]
	if err := e2.Compact(); err != nil {
		t.Fatal(err)
	}
	checkAgainstModel(t, e2, vec.L2, model, queries, 10, "gen2")
	name, _, err = snapshot.ReadCurrent(dir)
	if err != nil || name != snapshot.GenerationName(2) {
		t.Fatalf("CURRENT after second compact: %q (%v)", name, err)
	}
	onlyGeneration(2)
	e3, _, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	e3.Close()
}

// An engine whose snapshots store u8 refuses, with ErrUnrepresentable
// and before the delta sees it, a write no generation could persist —
// so its next persisted compaction still succeeds.
func TestUpsertRejectsUnrepresentable(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 50, Queries: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	builder, err := BuilderWithOpts("exact", vec.L2, 5, IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := New(pool.Vectors[:40], Config{
		Shards: 2, Workers: 2, Builder: builder, Meta: Meta{Algo: "exact", Seed: 5, Elem: vec.U8},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	built.Close()
	e, _, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	before := e.MutStats()
	for _, c := range []float32{0.1, 255.5, 256, -1, float32(math.Copysign(0, -1))} {
		v := slices.Clone(pool.Vectors[41])
		v[3] = c
		err := e.Upsert(7, v)
		if !errors.Is(err, ErrUnrepresentable) {
			t.Fatalf("component %v: Upsert error %v, want ErrUnrepresentable", c, err)
		}
		if e.MutStats() != before || e.Len() != 40 || e.delta.Shadows(7) {
			t.Fatalf("component %v: the rejected write reached the delta: %+v", c, e.MutStats())
		}
	}
	if err := e.Upsert(7, pool.Vectors[41]); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatalf("persisted compaction after a rejected write: %v", err)
	}
	if got := e.Search(pool.Vectors[41], 1); len(got) != 1 || got[0].ID != 7 || got[0].Dist != 0 {
		t.Fatalf("accepted write not served after compaction: %v", got)
	}
}

// A compaction whose old generation cannot be retired still swapped the
// new generation in, so it must still be counted: the stats may not fall
// behind Generation just because cleanup failed.
func TestCompactCountsSwapWhenRetireFails(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions; cannot make a generation unremovable")
	}
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 50, Queries: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	builder, err := BuilderWithOpts("exact", vec.L2, 5, IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	built, err := New(pool.Vectors[:40], Config{
		Shards: 2, Workers: 2, Builder: builder, Meta: Meta{Algo: "exact", Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := built.Save(dir); err != nil {
		t.Fatal(err)
	}
	built.Close()
	e, _, err := Load(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	if err := e.Upsert(40, pool.Vectors[40]); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	gen1 := filepath.Join(dir, snapshot.GenerationName(1))
	if err := os.Chmod(gen1, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(gen1, 0o755) })

	if err := e.Upsert(41, pool.Vectors[41]); err != nil {
		t.Fatal(err)
	}
	err = e.Compact()
	if err == nil || !strings.Contains(err.Error(), "old not retired") {
		t.Fatalf("Compact with unremovable old generation: err = %v, want \"old not retired\"", err)
	}
	st := e.MutStats()
	if st.Generation != 2 || st.Compactions != 2 {
		t.Fatalf("after failed retirement: Generation = %d, Compactions = %d, want 2 and 2", st.Generation, st.Compactions)
	}
	if st.LastCompactVectors != 42 {
		t.Fatalf("LastCompactVectors = %d, want 42", st.LastCompactVectors)
	}
}

// TestConcurrentMutateSearchCompact is the -race stress test: writers,
// a deleter, searchers, and a compactor hammer one engine; searchers
// assert the structural invariants (order, uniqueness, finiteness) on
// every result under the churn.
func TestConcurrentMutateSearchCompact(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 400, Queries: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 200
	builder, err := BuilderWithOpts("hnsw", vec.L2, 3, IndexOpts{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(pool.Vectors[:n0], Config{Shards: 3, Workers: 4, Builder: builder})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	const iters = 150
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spare := pool.Vectors[n0:]
			for i := 0; i < iters; i++ {
				id := uint32(n0 + (w*iters+i)%len(spare))
				if err := e.Upsert(id, spare[(w*iters+i)%len(spare)]); err != nil {
					report(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := e.Delete(uint32(i % (n0 + 50))); err != nil {
				report(err)
				return
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, _ := e.SearchBatch(pool.Queries, 10)
				for _, ns := range res {
					if err := ann.ValidateIn(ns, nil); err != nil {
						report(err)
						return
					}
					if len(ns) > 10 {
						report(fmt.Errorf("got %d results for k=10", len(ns)))
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := e.Compact(); err != nil && err != ErrCompacting {
				report(err)
				return
			}
		}
	}()

	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Quiesced: one final compact, then the engine must equal a model of
	// whatever corpus survived (read back through per-ID searches).
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st := e.MutStats()
	if st.DeltaLive != 0 || st.DeltaTombstones != 0 || st.BaseTombstones != 0 {
		t.Fatalf("post-compact delta not clean: %+v", st)
	}
	res, _ := e.SearchBatch(pool.Queries, 10)
	for _, ns := range res {
		if err := ann.ValidateIn(ns, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutationCounters pins the Len / MutStats bookkeeping through
// overwrites, deletes, reinserts, and a compaction.
func TestMutationCounters(t *testing.T) {
	e := exactEngine(t, testData(t, 20, 1).Vectors, vec.L2, 2, 2)
	if e.Len() != 20 {
		t.Fatalf("initial Len = %d", e.Len())
	}
	v := make(vec.Vector, e.Dim())

	if err := e.Upsert(30, v); err != nil { // new id
		t.Fatal(err)
	}
	if err := e.Upsert(30, v); err != nil { // overwrite of delta id
		t.Fatal(err)
	}
	if err := e.Upsert(4, v); err != nil { // overwrite of base id
		t.Fatal(err)
	}
	if e.Len() != 21 {
		t.Fatalf("Len after upserts = %d, want 21", e.Len())
	}
	st := e.MutStats()
	if st.Upserts != 3 || st.BaseTombstones != 1 || st.DeltaLive != 2 {
		t.Fatalf("stats after upserts: %+v", st)
	}

	if was, err := e.Delete(4); err != nil || !was { // delete overwritten base id
		t.Fatalf("delete 4: was=%v err=%v", was, err)
	}
	if was, err := e.Delete(9); err != nil || !was { // delete untouched base id
		t.Fatalf("delete 9: was=%v err=%v", was, err)
	}
	if was, err := e.Delete(9); err != nil || was { // double delete
		t.Fatalf("second delete 9: was=%v err=%v", was, err)
	}
	if was, err := e.Delete(500); err != nil || was { // never existed
		t.Fatalf("delete 500: was=%v err=%v", was, err)
	}
	if e.Len() != 19 {
		t.Fatalf("Len after deletes = %d, want 19", e.Len())
	}
	st = e.MutStats()
	if st.Deletes != 2 || st.BaseTombstones != 2 || st.DeltaTombstones != 2 {
		t.Fatalf("stats after deletes: %+v", st)
	}

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	st = e.MutStats()
	if st.Generation != 1 || st.Compactions != 1 ||
		st.DeltaLive != 0 || st.DeltaTombstones != 0 || st.BaseTombstones != 0 {
		t.Fatalf("stats after compact: %+v", st)
	}
	if e.Len() != 19 {
		t.Fatalf("Len after compact = %d, want 19", e.Len())
	}
}

// TestAlgosCoverSnapshotRegistry pins the builder registry to the
// snapshot codec registry: every family Algos lists builds an index the
// snapshot codec detects under the same name, so a family added to the
// builders cannot silently be missing a codec, or saved under another
// name.
func TestAlgosCoverSnapshotRegistry(t *testing.T) {
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 300, Queries: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algos() {
		builder, err := BuilderWithOpts(algo, vec.L2, 1, IndexOpts{})
		if err != nil {
			t.Errorf("BuilderWithOpts(%q): %v", algo, err)
			continue
		}
		idx, err := builder(0, d.Vectors)
		if err != nil {
			t.Fatalf("build %s: %v", algo, err)
		}
		if got, err := snapshot.Detect(idx); got != algo || err != nil {
			t.Errorf("snapshot.Detect(%s index) = %q, %v", algo, got, err)
		}
	}
	if _, err := BuilderWithOpts("nope", vec.L2, 1, IndexOpts{}); err == nil {
		t.Error("unknown algo accepted")
	}
	if _, err := BuilderWithOpts("ivfpq", vec.Angular, 1, IndexOpts{}); err == nil {
		t.Error("ivfpq accepted a non-L2 metric")
	}
	if _, err := BuilderWithOpts("ivfpq", vec.L2, 1, IndexOpts{Quantized: true}); err == nil {
		t.Error("ivfpq accepted quantized mode")
	}
	if _, err := BuilderWithOpts("exact", vec.L2, 1, IndexOpts{Quantized: true}); err == nil {
		t.Error("exact accepted quantized mode")
	}
}
