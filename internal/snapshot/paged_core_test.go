package snapshot

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// failingBackend fails every read of one page.
type failingBackend struct {
	pageBackend
	bad int64
}

func (b failingBackend) readPage(i int64) ([]byte, error) {
	if i == b.bad {
		return nil, errors.New("injected read error")
	}
	return b.pageBackend.readPage(i)
}

// PagedStore.Dists is one Dist per id, bit for bit and counter for
// counter (same touches, faults and I/O errors in the same order), for
// every metric on float and SQ8 records — including records on a page
// the backend cannot read, which score as the zero record and count one
// I/O error each.
func TestPagedDistsMatchDist(t *testing.T) {
	const n, dim = 260, 12
	for _, m := range metricsOf("hnsw") {
		for _, quantized := range []bool{false, true} {
			name := m.String()
			var built Index
			if quantized {
				name += "/sq8"
				built = buildQuantFamily(t, "hnsw", m, testData(n, dim, 7), 24)
			} else {
				built = buildFamily(t, "hnsw", m, testData(n, dim, 7))
			}
			t.Run(name, func(t *testing.T) {
				path := savedSnapshot(t, built)
				open := func() *PagedStore {
					p, err := OpenPagedFile(path, PagedOptions{CachePages: 2})
					if err != nil {
						t.Fatalf("open paged: %v", err)
					}
					t.Cleanup(func() { p.Close() })
					st := p.Store()
					st.back = failingBackend{pageBackend: st.back, bad: 1}
					return st
				}
				batched, single := open(), open()
				rng := rand.New(rand.NewSource(21))
				ids := make([]uint32, 200)
				onBadPage := 0
				for i := range ids {
					ids[i] = uint32(rng.Intn(n))
					if int(ids[i])/batched.NodesPerPage() == 1 {
						onBadPage++
					}
				}
				if onBadPage == 0 || batched.Stats().TotalPages < 3 {
					t.Fatalf("fixture does not exercise the failing page: %d ids on it, %d pages", onBadPage, batched.Stats().TotalPages)
				}
				q := batched.Prepare(testQueries(2, dim, 5)[1])
				got := make([]float32, len(ids))
				batched.Dists(&q, ids, got)
				for i, v := range ids {
					if want := single.Dist(q, v); math.Float32bits(got[i]) != math.Float32bits(want) {
						t.Fatalf("Dists[%d] (node %d) = %v, Dist = %v", i, v, got[i], want)
					}
				}
				bs, ss := batched.Stats(), single.Stats()
				if bs != ss {
					t.Errorf("counters diverge: Dists %+v, Dist loop %+v", bs, ss)
				}
				if bs.Touches != uint64(len(ids)) || bs.IOErrors != uint64(onBadPage) {
					t.Errorf("touches %d (want %d), I/O errors %d (want %d)", bs.Touches, len(ids), bs.IOErrors, onBadPage)
				}
			})
		}
	}
}

// The intrusive page cache is an exact LRU: against a slice model it
// hits, misses and evicts identically under a random get/put stream,
// and a second fill of a resident page keeps the first buffer.
func TestPageCacheMatchesReferenceLRU(t *testing.T) {
	const pages = 23
	rng := rand.New(rand.NewSource(5))
	for _, capPages := range []int{1, 2, 7, pages + 4} {
		c := newPageCache(capPages, pages)
		type entry struct {
			id  int64
			buf []byte
		}
		var model []entry // most recently used first
		find := func(id int64) int {
			for i, e := range model {
				if e.id == id {
					return i
				}
			}
			return -1
		}
		toFront := func(i int) {
			e := model[i]
			copy(model[1:i+1], model[:i])
			model[0] = e
		}
		for op := 0; op < 4000; op++ {
			id := int64(rng.Intn(pages))
			i := find(id)
			if rng.Intn(2) == 0 {
				got := c.get(id)
				if (got == nil) != (i < 0) {
					t.Fatalf("cap %d op %d: get(%d) hit=%v, model hit=%v", capPages, op, id, got != nil, i >= 0)
				}
				if i >= 0 {
					if &got[0] != &model[i].buf[0] {
						t.Fatalf("cap %d op %d: get(%d) returned another page's buffer", capPages, op, id)
					}
					toFront(i)
				}
			} else {
				buf := []byte{byte(id)}
				c.put(id, buf)
				if i >= 0 {
					toFront(i)
				} else {
					model = append([]entry{{id, buf}}, model...)
					model = model[:min(len(model), capPages)]
				}
			}
			if c.len() != len(model) {
				t.Fatalf("cap %d op %d: %d resident pages, model %d", capPages, op, c.len(), len(model))
			}
		}
		// Recency order, most recent first, must match link for link.
		var order []int64
		for i := c.head; i >= 0; i = c.next[i] {
			order = append(order, c.page[i])
		}
		for i, e := range model {
			if i >= len(order) || order[i] != e.id {
				t.Fatalf("cap %d: recency order %v, model %v", capPages, order, model)
			}
		}
	}
}

// The scratch-aliasing hazard: the resident store answers Neighbors
// with a view of its own graph. One goroutine alternating resident →
// mmap → readat → resident searches reuses one pooled scratch for all
// of them; if the scratch ever kept the resident view as its buffer,
// the next paged search would append another node's adjacency into the
// resident graph.
func TestPagedScratchDoesNotAliasResidentGraph(t *testing.T) {
	const n, dim = 260, 12
	for _, algo := range pagedAlgos {
		t.Run(algo, func(t *testing.T) {
			path := savedSnapshot(t, buildFamily(t, algo, vec.L2, testData(n, dim, 7)))
			queries := testQueries(12, dim, 99)
			fresh, err := LoadFile(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			want := make([][]ann.Neighbor, len(queries))
			for i, q := range queries {
				want[i] = fresh.Search(q, 9)
			}
			ram, err := LoadFile(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			resident := ram.(interface{ BaseGraph() *graph.Graph }).BaseGraph()
			before := resident.Clone()
			modes := []Index{ram}
			for _, backend := range []string{"mmap", "readat"} {
				p, err := OpenPagedFile(path, PagedOptions{Backend: backend, CachePages: 2})
				if err != nil {
					t.Fatalf("open paged (%s): %v", backend, err)
				}
				defer p.Close()
				modes = append(modes, p)
			}
			for round := 0; round < 3; round++ {
				for i, q := range queries {
					for mi, idx := range modes {
						requireSameResults(t, algo, idx.Search(q, 9), want[i])
						if !reflect.DeepEqual(resident, before) {
							t.Fatalf("round %d query %d: resident graph rewritten after a search in mode %d", round, i, mi)
						}
					}
				}
			}
		})
	}
}
