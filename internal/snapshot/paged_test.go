package snapshot

import (
	"errors"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/vec"
)

// graphAlgos are the graph-traversal families, in a fixed order for
// deterministic subtest names.
var graphAlgos = []string{"hnsw", "diskann", "hcnng", "togg"}

func savedSnapshot(t testing.TB, idx ann.Index, elem vec.ElemKind) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.ndss")
	if _, _, err := SaveFile(path, idx, elem); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

// atRestKinds are the element kinds a snapshot's rows can be stored in.
var atRestKinds = []vec.ElemKind{vec.F32, vec.U8, vec.I8}

// toKind maps testData/testQueries vectors (components in [-1, 1]) onto
// values kind stores exactly, which Save insists on: whole numbers in
// 0..200 for U8 and -100..100 for I8. F32 vectors are returned as they
// are; zero vectors stay zero.
func toKind(kind vec.ElemKind, vs []vec.Vector) []vec.Vector {
	if kind == vec.F32 {
		return vs
	}
	out := make([]vec.Vector, len(vs))
	for i, v := range vs {
		scaled := v.Clone()
		for j, x := range scaled {
			if scaled[j] = x * 100; kind == vec.U8 {
				scaled[j] = float32(math.Abs(float64(x))) * 200
			}
		}
		out[i] = vec.Quantize(kind, scaled)
	}
	return out
}

// The acceptance property: a paged (beyond-RAM) index returns results
// byte-identical to the in-RAM load of the same snapshot, across all
// six families, every metric each supports, full-precision and (graph
// families) quantized, every at-rest element kind, multiple k, and both
// byte backends — with a cache far smaller than the image so eviction
// is actually exercised.
func TestPagedByteIdentity(t *testing.T) {
	const n, dim = 260, 12
	for _, algo := range append(slices.Clone(graphAlgos), "exact", "ivfpq") {
		for _, m := range metricsOf(algo) {
			for _, kind := range atRestKinds {
				for _, quantized := range []bool{false, true} {
					if quantized && !slices.Contains(quantAlgos, algo) {
						continue
					}
					name := algo + "/" + m.String() + "/" + kind.String()
					if quantized {
						name += "/sq8"
					}
					t.Run(name, func(t *testing.T) {
						queries := toKind(kind, testQueries(8, dim, 99))
						data := toKind(kind, testData(n, dim, 7))
						var built ann.Index
						if quantized {
							built = buildQuantFamily(t, algo, m, data, 24)
						} else {
							built = buildFamily(t, algo, m, data)
						}
						path := savedSnapshot(t, built, kind)
						ram, _, err := loadFile(path)
						if err != nil {
							t.Fatalf("load: %v", err)
						}
						for _, backend := range []string{"mmap", "readat"} {
							paged, err := OpenPagedFile(path, PagedOptions{Backend: backend, CachePages: 2})
							if err != nil {
								t.Fatalf("open paged (%s): %v", backend, err)
							}
							defer paged.Close()
							if !mmapSupported && backend == "mmap" && paged.Backend() != "readat" {
								t.Fatalf("mmap unsupported but backend = %q", paged.Backend())
							}
							for _, q := range queries {
								for _, k := range []int{1, 5, 17, n + 50} {
									requireSameResults(t, name+"/"+backend,
										paged.Index().Search(q, k), ram.Search(q, k))
								}
							}
							st := paged.Stats()
							if st.Touches == 0 || st.Faults == 0 {
								t.Errorf("%s: counters not advancing: %+v", backend, st)
							}
							if st.ResidentPages > st.CachePages {
								t.Errorf("%s: resident %d exceeds cache budget %d", backend, st.ResidentPages, st.CachePages)
							}
							if st.IOErrors != 0 {
								t.Errorf("%s: %d I/O errors", backend, st.IOErrors)
							}
						}
					})
				}
			}
		}
	}
}

// Concurrent searches over one paged store stay byte-identical to the
// RAM index on both backends — the test the CI race pass runs with
// -race to check the page cache's locking, the readat backend's
// unlocked read window included.
func TestPagedConcurrentSearches(t *testing.T) {
	const n, dim, workers = 200, 10, 8
	built := buildQuantFamily(t, "hnsw", vec.L2, testData(n, dim, 5), 16)
	path := savedSnapshot(t, built, vec.F32)
	ram, _, err := loadFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	queries := testQueries(24, dim, 77)
	want := make([][]ann.Neighbor, len(queries))
	for i, q := range queries {
		want[i] = ram.Search(q, 9)
	}
	for _, backend := range []string{"mmap", "readat"} {
		paged, err := OpenPagedFile(path, PagedOptions{Backend: backend, CachePages: 2})
		if err != nil {
			t.Fatalf("open paged (%s): %v", backend, err)
		}
		defer paged.Close()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 4; rep++ {
					for i, q := range queries {
						got := paged.Index().Search(q, 9)
						if len(got) != len(want[i]) {
							t.Errorf("%s worker %d query %d: %d results, want %d", backend, w, i, len(got), len(want[i]))
							return
						}
						for j := range got {
							if got[j] != want[i][j] {
								t.Errorf("%s worker %d query %d rank %d: %+v, want %+v", backend, w, i, j, got[j], want[i][j])
								return
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// A paged index cannot be re-saved (its corpus lives in blocks it does
// not own); Save must say so instead of panicking on nil internals.
func TestPagedIndexResaveRejected(t *testing.T) {
	built := buildFamily(t, "hnsw", vec.L2, testData(120, 8, 3))
	path := savedSnapshot(t, built, vec.F32)
	paged, err := OpenPagedFile(path, PagedOptions{})
	if err != nil {
		t.Fatalf("open paged: %v", err)
	}
	defer paged.Close()
	if _, _, err := SaveFile(filepath.Join(t.TempDir(), "resave.ndss"), paged.Index(), vec.F32); err == nil {
		t.Fatalf("re-saving a paged index succeeded")
	}
}

// Past-version files are refused by their version, not parsed: a
// current image relabelled version 2 under a valid header CRC fails both
// entry points with ErrVersion naming the version, for every graph
// family.
func TestPagedOpenRejectsLegacyFiles(t *testing.T) {
	for _, algo := range graphAlgos {
		img := withVersion(snapshotOf(t, algo), 2)
		want := func(entry string, err error) {
			if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "version 2") {
				t.Errorf("%s: %s of an image relabelled version 2: err = %v, want ErrVersion naming version 2", algo, entry, err)
			}
		}
		_, err := loadBytes(t, algo, img)
		want("Load", err)
		pi, err := openPagedBytes(t, algo, img)
		if err == nil {
			pi.Close()
		}
		want("OpenPagedFile", err)
	}
}
