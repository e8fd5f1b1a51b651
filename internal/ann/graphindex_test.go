package ann_test

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// stubStore is a NodeStore that only answers the shape questions the
// reconstruction checks ask (the embedded nil interface panics on
// anything else, which a rejected reconstruction must never reach).
type stubStore struct {
	ann.NodeStore
	n, dim    int
	quantized bool
}

func (s stubStore) Len() int        { return s.n }
func (s stubStore) Dim() int        { return s.dim }
func (s stubStore) Quantized() bool { return s.quantized }

// One table over every family's single reconstructor: the checks
// ann.GraphIndex owns (non-empty store, entry in range, quantized flag
// matching the store) reject identically whichever family routes
// through it, and each family's own navigation checks sit in front.
func TestGraphIndexReconstruction(t *testing.T) {
	const n, dim = 40, 6
	data := uniformData(n, dim, 3)
	ring := graph.New(n)
	for v := 0; v < n; v++ {
		ring.SetNeighbors(uint32(v), []uint32{uint32((v + 1) % n), uint32((v + n - 1) % n)})
	}
	resident, err := ann.NewKernelStore(vec.L2, vec.NewMatrix(data), ring, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ann.NewKernelStore(vec.L2, vec.NewMatrix(data[:n-1]), ring, false); !errors.Is(err, ann.ErrBadConfig) {
		t.Errorf("graph/corpus length mismatch: err = %v, want ErrBadConfig", err)
	}

	// nav is every family's navigation data in one bag; each family's
	// reconstructor picks the fields it takes.
	type nav struct {
		entry     uint32
		quantized bool
		upper     []*graph.Graph
		levels    []int
		maxLevel  int
		guideDims []int
	}
	good := nav{levels: make([]int, n), guideDims: []int{0, 3}}
	families := map[string]func(ann.NodeStore, nav) (ann.Tunable, error){
		"hnsw": func(st ann.NodeStore, v nav) (ann.Tunable, error) {
			cfg := hnsw.DefaultConfig(vec.L2)
			cfg.Quantized = v.quantized
			return hnsw.FromStore(cfg, st, v.upper, v.levels, v.entry, v.maxLevel)
		},
		"vamana": func(st ann.NodeStore, v nav) (ann.Tunable, error) {
			cfg := vamana.DefaultConfig(vec.L2)
			cfg.Quantized = v.quantized
			return vamana.FromStore(cfg, st, v.entry)
		},
		"hcnng": func(st ann.NodeStore, v nav) (ann.Tunable, error) {
			cfg := hcnng.DefaultConfig(vec.L2)
			cfg.Quantized = v.quantized
			return hcnng.FromStore(cfg, st, v.entry)
		},
		"togg": func(st ann.NodeStore, v nav) (ann.Tunable, error) {
			cfg := togg.DefaultConfig(vec.L2)
			cfg.Quantized = v.quantized
			return togg.FromStore(cfg, st, v.entry, v.guideDims)
		},
	}
	edit := func(f func(*nav)) nav {
		v := good
		f(&v)
		return v
	}
	cases := []struct {
		name   string
		only   string // family the case applies to; "" = all
		store  ann.NodeStore
		nav    nav
		shared bool // rejected by the shared GraphIndex checks (ErrBadConfig)
	}{
		{"empty store", "", stubStore{dim: dim}, edit(func(v *nav) { v.levels = nil }), true},
		{"entry out of range", "", resident, edit(func(v *nav) { v.entry = n }), true},
		{"quantized config over float store", "", resident, edit(func(v *nav) { v.quantized = true }), true},
		{"float config over quantized store", "", stubStore{n: n, dim: dim, quantized: true}, good, true},
		{"levels for a different corpus", "hnsw", resident, edit(func(v *nav) { v.levels = make([]int, n-1) }), false},
		{"upper layers disagree with max level", "hnsw", resident, edit(func(v *nav) { v.maxLevel = 1 }), false},
		{"negative max level", "hnsw", resident, edit(func(v *nav) { v.maxLevel = -1 }), false},
		{"upper layer for a different corpus", "hnsw", resident,
			edit(func(v *nav) { v.maxLevel, v.upper = 1, []*graph.Graph{graph.New(n + 1)} }), false},
		{"no guide dims", "togg", resident, edit(func(v *nav) { v.guideDims = nil }), false},
		{"more guide dims than dims", "togg", resident, edit(func(v *nav) { v.guideDims = make([]int, dim+1) }), false},
		{"guide dim out of range", "togg", resident, edit(func(v *nav) { v.guideDims = []int{0, dim} }), false},
		{"negative guide dim", "togg", resident, edit(func(v *nav) { v.guideDims = []int{-1} }), false},
	}
	for name, fromStore := range families {
		t.Run(name, func(t *testing.T) {
			idx, err := fromStore(resident, good)
			if err != nil {
				t.Fatalf("valid parts rejected: %v", err)
			}
			// A resident store answers BaseGraph, its adjacency copies
			// out as the ring; the search runs.
			full := idx.(interface{ BaseGraph() *graph.Graph })
			if idx.Len() != n || idx.Store() != ann.NodeStore(resident) {
				t.Fatalf("reconstructed index: Len %d, store %T", idx.Len(), idx.Store())
			}
			if full.BaseGraph() != ring || !reflect.DeepEqual(ann.CopyGraph(idx.Store()), ring) {
				t.Error("resident store does not answer BaseGraph/CopyGraph")
			}
			if err := ann.Validate(idx.Search(data[7], 5), n); err != nil {
				t.Error(err)
			}
			for _, c := range cases {
				if c.only != "" && c.only != name {
					continue
				}
				_, err := fromStore(c.store, c.nav)
				if err == nil {
					t.Errorf("%s: accepted", c.name)
				} else if c.shared && !errors.Is(err, ann.ErrBadConfig) {
					t.Errorf("%s: err = %v, want ErrBadConfig", c.name, err)
				}
			}
		})
	}
}

// A paged-style store (anything but *KernelStore) has no resident
// matrix or graph: Matrix/BaseGraph are nil, and CopyGraph copies the
// adjacency out of the store's Neighbors.
func TestGraphIndexNonResidentAccessors(t *testing.T) {
	g := graph.New(3)
	g.SetNeighbors(0, []uint32{1, 2})
	resident, err := ann.NewKernelStore(vec.L2, vec.NewMatrix([]vec.Vector{{0}, {1}, {2}}), g, false)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := ann.WithGraph(resident, g) // same bytes, not a *KernelStore
	gi, err := ann.NewGraphIndex(wrapped, vec.L2, 0, 4, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, resident := gi.Store().(*ann.KernelStore); resident || gi.BaseGraph() != nil {
		t.Error("non-resident store answered as resident")
	}
	cp := ann.CopyGraph(gi.Store())
	if cp.Len() != 3 || cp.Degree(0) != 2 || !reflect.DeepEqual(cp.Neighbors(0), []uint32{1, 2}) {
		t.Errorf("store-backed CopyGraph: len %d, nbrs %v", cp.Len(), cp.Neighbors(0))
	}
	gi.SetBeamWidth(0)
	if gi.BeamWidth() != 4 {
		t.Errorf("SetBeamWidth(0) changed the beam to %d", gi.BeamWidth())
	}
}

// uniformData is n seeded uniform vectors in [0,1)^dim.
func uniformData(n, dim int, seed int64) []vec.Vector {
	rng := rand.New(rand.NewSource(seed))
	data := make([]vec.Vector, n)
	for i := range data {
		data[i] = make(vec.Vector, dim)
		for d := range data[i] {
			data[i][d] = rng.Float32()
		}
	}
	return data
}

// A request-sized k sizes nothing: it is clamped to the index, so the
// widest possible search returns every vertex, sorted, float and
// quantized alike.
func TestSearchClampsKToIndexSize(t *testing.T) {
	const n = 100
	data := uniformData(n, 8, 2)
	for _, quantized := range []bool{false, true} {
		cfg := hnsw.DefaultConfig(vec.L2)
		cfg.Quantized = quantized
		idx, err := hnsw.Build(data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := idx.Search(data[3], math.MaxInt32)
		if len(res) != n {
			t.Fatalf("quantized=%v: Search(k=MaxInt32) returned %d results, want %d", quantized, len(res), n)
		}
		if err := ann.Validate(res, n); err != nil {
			t.Fatalf("quantized=%v: %v", quantized, err)
		}
		if !slices.Equal(res, idx.Search(data[3], n)) {
			t.Errorf("quantized=%v: k=MaxInt32 and k=Len() disagree", quantized)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// The allocation budget of the traversal core: an untraced float search
// on a warmed scratch allocates what it returns (the result slice, the
// escaping prepared query), not per expansion, push or visited vertex —
// resident and served from snapshot pages alike.
func TestSearchAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	data := uniformData(1500, 32, 4)
	built, err := hnsw.Build(data, hnsw.DefaultConfig(vec.L2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.ndss")
	if _, _, err := snapshot.SaveFile(path, built, vec.F32); err != nil {
		t.Fatal(err)
	}
	paged, err := snapshot.OpenPagedFile(path, snapshot.PagedOptions{Backend: "mmap", CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	q := data[11]
	for name, idx := range map[string]ann.Index{"resident": built, "mmap": paged.Index()} {
		for _, warm := range data[:20] { // pooled scratch, page-cache slots
			idx.Search(warm, 10)
		}
		if allocs := testing.AllocsPerRun(50, func() { idx.Search(q, 10) }); allocs > 8 {
			t.Errorf("%s hnsw Search allocates %.1f objects per query, budget 8", name, allocs)
		}
	}
}

// Indexes of different sizes and families share the scratch pool: eight
// goroutines searching two of them concurrently get the answers a
// single goroutine does (run under -race in CI).
func TestConcurrentSearchesShareScratchPool(t *testing.T) {
	big, err := hnsw.Build(uniformData(600, 8, 5), hnsw.DefaultConfig(vec.L2))
	if err != nil {
		t.Fatal(err)
	}
	small, err := vamana.Build(uniformData(150, 8, 6), vamana.DefaultConfig(vec.L2))
	if err != nil {
		t.Fatal(err)
	}
	indexes := []ann.Index{big, small}
	queries := uniformData(16, 8, 7)
	want := make([][][]ann.Neighbor, len(indexes))
	for i, idx := range indexes {
		for _, q := range queries {
			want[i] = append(want[i], idx.Search(q, 10))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				for qi, q := range queries {
					i := (w + rep + qi) % len(indexes)
					if got := indexes[i].Search(q, 10); !slices.Equal(got, want[i][qi]) {
						t.Errorf("worker %d index %d query %d: %v, want %v", w, i, qi, got, want[i][qi])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
