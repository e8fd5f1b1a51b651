package figures

import (
	"math/rand"

	"ndsearch/internal/ann"
	"ndsearch/internal/reorder"
	"ndsearch/internal/vec"
)

// Fig4 reproduces the motivation study: (a) per-query page-access ratio
// and accessed-vector/page-data ratio for 10 sampled queries with the
// construction-order layout, and (b) the fraction of LUNs touched by
// each of 10 consecutive batches.
func (s *Suite) Fig4() (*Table, *Table, error) {
	w, err := s.Workload("sift-1b", "hnsw")
	if err != nil {
		return nil, nil, err
	}
	// Construction-order layout (no reordering), the state Fig. 4 measures.
	cfg := NDConfig()
	cfg.Sched.Reorder = reorder.Identity
	sys, err := NDSystem(w, cfg)
	if err != nil {
		return nil, nil, err
	}
	layout := sys.Layout()

	a := &Table{
		Title:   "Fig. 4a - page/vector access pattern of 10 sampled queries (construction order)",
		Headers: []string{"query", "pages/trace-length", "vectors/page-data %"},
		Notes:   []string{"paper: high pages-per-access and low useful-bytes ratios motivate reordering"},
	}
	rng := rand.New(rand.NewSource(s.Scale.Seed))
	vertexBytes := vec.StoredBytes(w.Profile.Elem, w.Profile.Dim)
	// Sample from the default-scale prefix so the figure is independent
	// of cache upsizing by other experiments (see Suite.batch).
	pool := s.batch(w).Queries
	for i := 0; i < 10 && i < len(pool); i++ {
		q := &pool[rng.Intn(len(pool))]
		pages := map[int64]bool{}
		accesses := 0
		for _, it := range q.Iters {
			for _, v := range it.Neighbors {
				if pg, err := layout.PageOf(v); err == nil {
					pages[pg] = true
				}
				accesses++
			}
		}
		if accesses == 0 {
			continue
		}
		ratio := float64(len(pages)) / float64(accesses)
		useful := float64(accesses*vertexBytes) / float64(len(pages)*layout.Geometry().PageBytes) * 100
		a.AddRow(i, ratio, useful)
	}

	b := &Table{
		Title:   "Fig. 4b - LUNs accessed per batch (10 consecutive batches)",
		Headers: []string{"batch#", "LUNs touched", "fraction %"},
		Notes: []string{
			"paper: over 82% of the vertex-storing LUNs are accessed in each batch of 2048",
		},
	}
	total := layout.PopulatedLUNs()
	batchSize := s.Scale.Batch / 4
	if batchSize < 8 {
		batchSize = 8
	}
	for bi := 0; bi < 10; bi++ {
		luns := map[int]bool{}
		for qi := 0; qi < batchSize; qi++ {
			q := &pool[(bi*batchSize+qi)%len(pool)]
			for _, it := range q.Iters {
				for _, v := range it.Neighbors {
					if int(v) < layout.Len() {
						luns[layout.LUN(v)] = true
					}
				}
			}
		}
		b.AddRow(bi, len(luns), float64(len(luns))/float64(total)*100)
	}
	return a, b, nil
}

// Fig10 reproduces the reordering comparison: the bandwidth beta of the
// original (construction) order, random BFS, and the degree-ascending
// BFS on each dataset's HNSW graph (the paper's worked example reports
// 5.875 / 5.125 & 4 / 3.625 on its toy graph).
func (s *Suite) Fig10() (*Table, error) {
	t := &Table{
		Title:   "Fig. 10 - average vertex bandwidth beta by reordering method",
		Headers: []string{"dataset", "original", "random BFS", "ours"},
		Notes:   []string{"ours must be lowest or tied; randomness makes 'random BFS' seed-dependent"},
	}
	for _, ds := range Datasets() {
		w, err := s.Workload(ds, "hnsw")
		if err != nil {
			return nil, err
		}
		res, err := reorder.Compare(ann.CopyGraph(w.Index.Store()), s.Scale.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(ds, res[reorder.Identity], res[reorder.RandomBFS], res[reorder.DegreeAscendingBFS])
	}
	return t, nil
}

// Fig14 reproduces the static-scheduling evaluation: page-access ratio
// and speedup (normalised to no reordering) for w/o re, random BFS, and
// ours, per dataset and algorithm.
func (s *Suite) Fig14() (*Table, error) {
	t := &Table{
		Title:   "Fig. 14 - static scheduling: page access ratio and speedup",
		Headers: []string{"algo", "dataset", "method", "page ratio", "norm speedup"},
		Notes: []string{
			"paper: ours cuts page-access ratio by up to 38% and speeds up by up to 1.17x;",
			"measured without batch-wise dynamic allocation: at the scaled corpus-to-batch",
			"ratio, cross-query page sharing saturates every page and would mask the static",
			"effect the paper isolates at billion scale (see EXPERIMENTS.md)",
		},
	}
	methods := []reorder.Method{reorder.Identity, reorder.RandomBFS, reorder.DegreeAscendingBFS}
	for _, algo := range Algos() {
		for _, ds := range Datasets() {
			w, err := s.Workload(ds, algo)
			if err != nil {
				return nil, err
			}
			var base float64
			for _, m := range methods {
				cfg := NDConfig()
				cfg.Sched.Reorder = m
				// Isolate the static effect: no speculation, and no
				// batch-wise sharing (which saturates the scaled corpus's
				// pages and hides reordering entirely).
				cfg.Sched.Speculative = false
				cfg.Sched.DynamicAlloc = false
				sys, err := NDSystem(w, cfg)
				if err != nil {
					return nil, err
				}
				res, err := sys.SimulateBatch(s.batch(w))
				if err != nil {
					return nil, err
				}
				if m == reorder.Identity {
					base = res.Latency.Seconds()
				}
				t.AddRow(algo, ds, string(m), res.PageAccessRatio, base/res.Latency.Seconds())
			}
		}
	}
	return t, nil
}

// Fig15 reproduces the dynamic-scheduling evaluation: normalised page
// accesses and speedup for w/o ds, da, and da+sp.
func (s *Suite) Fig15() (*Table, error) {
	t := &Table{
		Title:   "Fig. 15 - dynamic scheduling: normalised page accesses and speedup",
		Headers: []string{"algo", "dataset", "setting", "norm page accesses", "norm speedup"},
		Notes: []string{
			"paper: da cuts page accesses by up to 73% and gives up to 2.67x;",
			"sp increases page accesses (over half of speculated results unused) but adds up to 1.27x",
		},
	}
	type setting struct {
		name   string
		da, sp bool
	}
	settings := []setting{{"w/o ds", false, false}, {"da", true, false}, {"da+sp", true, true}}
	for _, algo := range Algos() {
		for _, ds := range Datasets() {
			w, err := s.Workload(ds, algo)
			if err != nil {
				return nil, err
			}
			var basePages float64
			var baseLat float64
			for _, st := range settings {
				cfg := NDConfig()
				cfg.Sched.DynamicAlloc = st.da
				cfg.Sched.Speculative = st.sp
				sys, err := NDSystem(w, cfg)
				if err != nil {
					return nil, err
				}
				res, err := sys.SimulateBatch(s.batch(w))
				if err != nil {
					return nil, err
				}
				if st.name == "w/o ds" {
					basePages = float64(res.PageReads)
					baseLat = res.Latency.Seconds()
				}
				t.AddRow(algo, ds, st.name,
					float64(res.PageReads)/basePages, baseLat/res.Latency.Seconds())
			}
		}
	}
	return t, nil
}
