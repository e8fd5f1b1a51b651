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
// every metric on rows of every at-rest kind and on SQ8 records —
// including records on a page the backend cannot read, which score as
// the zero record and count one I/O error each — and on a list longer
// than one cache transaction resolves.
func TestPagedDistsMatchDist(t *testing.T) {
	const n, dim = 260, 12
	for _, m := range metricsOf("hnsw") {
		for _, kind := range atRestKinds {
			for _, quantized := range []bool{false, true} {
				name := m.String() + "/" + kind.String()
				data := toKind(kind, testData(n, dim, 7))
				var built ann.Index
				if quantized {
					name += "/sq8"
					built = buildQuantFamily(t, "hnsw", m, data, 24)
				} else {
					built = buildFamily(t, "hnsw", m, data)
				}
				t.Run(name, func(t *testing.T) {
					path := savedSnapshot(t, built, kind)
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
					q := batched.Prepare(toKind(kind, testQueries(2, dim, 5))[1])
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
}

// modelBackend serves one fresh single-byte buffer per read, fails every
// read of page bad, and — when racing — fills the page it was asked for
// through a nested resolve before answering, which is what a second
// search does in the window a blocking read leaves the cache unlocked.
type modelBackend struct {
	block  bool
	bad    int64
	racing *pageCache
	reads  int
}

func (b *modelBackend) blocking() bool { return b.block }
func (b *modelBackend) Close() error   { return nil }

func (b *modelBackend) readPage(i int64) ([]byte, error) {
	b.reads++
	if i == b.bad {
		return nil, errors.New("injected read error")
	}
	if c := b.racing; c != nil {
		b.racing = nil
		var first [1][]byte
		c.resolve(b, []int64{i}, first[:])
		b.racing = c
	}
	return []byte{byte(i)}, nil
}

// The intrusive page cache is an exact LRU: driven through resolve, its
// one entry point, with random page lists — lists that name a page
// twice, lists longer than the budget, a page whose reads fail — it
// hits, faults, evicts and hands out buffers exactly as a slice model
// taking the same pages one at a time, whether the backend is read
// under the lock or around it.
func TestPageCacheMatchesReferenceLRU(t *testing.T) {
	const pages, bad = 23, 11
	rng := rand.New(rand.NewSource(5))
	for _, blocking := range []bool{false, true} {
		for _, capPages := range []int{1, 2, 7, pages + 4} {
			c := newPageCache(capPages, pages)
			back := &modelBackend{block: blocking, bad: bad}
			type entry struct {
				id  int64
				buf []byte
			}
			var model []entry // most recently used first
			for op := 0; op < 1500; op++ {
				list := make([]int64, 1+rng.Intn(2*capPages+3))
				for k := range list {
					list[k] = int64(rng.Intn(pages))
				}
				if len(list) > 1 && op%3 == 0 {
					list[len(list)-1] = list[0] // one page twice
				}
				out := make([][]byte, len(list))
				reads := back.reads
				faults, ioErrs := c.resolve(back, list, out)
				var wantFaults, wantErrs uint64
				for k, id := range list {
					at := -1
					for i, e := range model {
						if e.id == id {
							at = i
						}
					}
					switch {
					case at >= 0: // hit: same buffer, to the front
						if len(out[k]) != 1 || &out[k][0] != &model[at].buf[0] {
							t.Fatalf("cap %d op %d entry %d: hit on page %d returned another buffer", capPages, op, k, id)
						}
						e := model[at]
						copy(model[1:at+1], model[:at])
						model[0] = e
					case id == bad: // failed read: nil, cache untouched
						wantFaults++
						wantErrs++
						if out[k] != nil {
							t.Fatalf("cap %d op %d entry %d: failed read returned %v", capPages, op, k, out[k])
						}
					default: // fault: inserted at the front, tail evicted
						wantFaults++
						if len(out[k]) != 1 || out[k][0] != byte(id) {
							t.Fatalf("cap %d op %d entry %d: fault on page %d returned %v", capPages, op, k, id, out[k])
						}
						model = append([]entry{{id, out[k]}}, model...)
						model = model[:min(len(model), capPages)]
					}
				}
				if faults != wantFaults || ioErrs != wantErrs || uint64(back.reads-reads) != wantFaults {
					t.Fatalf("cap %d op %d: %d faults, %d I/O errors, %d reads; model %d faults, %d errors",
						capPages, op, faults, ioErrs, back.reads-reads, wantFaults, wantErrs)
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
}

// A page filled by another search while a blocking read had the cache
// unlocked keeps the first buffer: the late reader is handed the
// resident bytes and its own read is dropped.
func TestPageCacheSecondFillKeepsFirstBuffer(t *testing.T) {
	c := newPageCache(2, 4)
	back := &modelBackend{block: true, bad: -1, racing: c}
	var late, again [1][]byte
	faults, _ := c.resolve(back, []int64{3}, late[:])
	if faults != 1 || back.reads != 2 || c.len() != 1 {
		t.Fatalf("faults %d, reads %d, resident %d; want 1, 2, 1", faults, back.reads, c.len())
	}
	back.racing = nil
	if faults, _ := c.resolve(back, []int64{3}, again[:]); faults != 0 {
		t.Fatalf("page 3 not resident after the racing fill")
	}
	if &late[0][0] != &again[0][0] {
		t.Fatalf("the late reader was handed its own buffer, not the resident one")
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
	for _, algo := range graphAlgos {
		t.Run(algo, func(t *testing.T) {
			path := savedSnapshot(t, buildFamily(t, algo, vec.L2, testData(n, dim, 7)), vec.F32)
			queries := testQueries(12, dim, 99)
			fresh, _, err := loadFile(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			want := make([][]ann.Neighbor, len(queries))
			for i, q := range queries {
				want[i] = fresh.Search(q, 9)
			}
			ram, _, err := loadFile(path)
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			resident := ram.(interface{ BaseGraph() *graph.Graph }).BaseGraph()
			before := resident.Clone()
			modes := []ann.Index{ram}
			for _, backend := range []string{"mmap", "readat"} {
				p, err := OpenPagedFile(path, PagedOptions{Backend: backend, CachePages: 2})
				if err != nil {
					t.Fatalf("open paged (%s): %v", backend, err)
				}
				defer p.Close()
				modes = append(modes, p.Index())
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
