package main

import (
	"fmt"
	"math/rand"

	"ndsearch/internal/ann"
	"ndsearch/internal/core"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/nand"
	"ndsearch/internal/platform"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// The probes drive single layers directly and single-threaded, outside
// any workload, so their numbers do not depend on which workload the
// traced pass ran. They run only in the traced pass.

// probeHNSW builds one shard-sized index with the fixture's builder and
// searches the sample queries on it. The traced searches give exact
// distance and hop counts; they also feed the device-model probe.
func probeHNSW(f *fixture, sample []vec.Vector, m metrics) (ann.Index, *trace.Batch, error) {
	start := now()
	idx, err := f.builder(0, f.corpus[:len(f.corpus)/shards])
	if err != nil {
		return nil, nil, fmt.Errorf("hnsw probe: %w", err)
	}
	m["hnsw.build_s"] = now().Sub(start).Seconds()

	const passes = 5
	times := make([]float64, passes)
	for p := range times {
		start = now()
		for _, q := range sample {
			idx.Search(q, k)
		}
		times[p] = micros(now().Sub(start)) / float64(len(sample))
	}
	m["hnsw.search_us_per_query"] = median(times)

	batch := &trace.Batch{Dataset: f.prof.Name, Algo: "hnsw"}
	var dists, hops float64
	for qi, q := range sample {
		_, tr := idx.SearchTraced(q, k)
		tr.QueryID = qi
		dists += float64(tr.Length())
		hops += float64(len(tr.Iters))
		batch.Queries = append(batch.Queries, tr)
	}
	m["hnsw.dists_per_query"] = dists / float64(len(sample))
	m["hnsw.hops_per_query"] = hops / float64(len(sample))
	return idx, batch, nil
}

// probeVec times Kernel.DistsTo over a fixed, seeded row order.
func probeVec(f *fixture, m metrics) error {
	const rowsN = 4096
	kernelNS := func(kern *vec.Kernel, q vec.Vector) float64 {
		rng := rand.New(rand.NewSource(f.seed))
		rows := make([]uint32, rowsN)
		for i := range rows {
			rows[i] = uint32(rng.Intn(kern.Matrix().Rows()))
		}
		out := make([]float32, rowsN)
		pq := kern.Prepare(q)
		const passes = 21
		times := make([]float64, passes)
		for p := range times {
			start := now()
			kern.DistsTo(pq, rows, out)
			times[p] = float64(now().Sub(start).Nanoseconds()) / rowsN
		}
		return median(times)
	}
	sift := vec.NewMatrix(f.corpus[:min(rowsN, len(f.corpus))])
	sift.EnableSQ8()
	m["vec.l2_d128_ns_per_dist"] = kernelNS(vec.NewKernel(vec.L2, sift), f.queries[0])
	m["vec.sq8_d128_ns_per_dist"] = kernelNS(vec.NewQuantizedKernel(vec.L2, sift), f.queries[0])
	glove, err := dataset.Generate(dataset.Glove100(), dataset.GenConfig{N: rowsN, Queries: 1, Seed: f.seed})
	if err != nil {
		return fmt.Errorf("vec probe: %w", err)
	}
	m["vec.angular_d100_ns_per_dist"] = kernelNS(vec.NewKernel(vec.Angular, vec.NewMatrix(glove.Vectors)), glove.Queries[0])
	// Computed, not measured: one float32 row read per distance.
	m["vec.bytes_per_dist"] = float64(4 * f.prof.Dim)
	m["vec.share_of_search"] = ratio(m["hnsw.dists_per_query"]*m["vec.l2_d128_ns_per_dist"]/1e3, m["hnsw.search_us_per_query"])
	return nil
}

// probeCore replays the probe index's traces through the paper's device
// model and the CPU baseline. Its outputs are simulated, not measured,
// and repeat exactly for a seed.
func probeCore(f *fixture, idx ann.Index, batch *trace.Batch, m metrics) error {
	cfg := core.DefaultConfig()
	cfg.Params.Geometry = nand.ScaledGeometry()
	sys, err := core.NewSystemFromIndex(idx, f.prof, cfg)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	sim, err := sys.SimulateBatch(batch)
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	// 24 is the HNSW base layer's degree bound (2M) in the engine's builder.
	cpu, err := platform.NewCPU().Simulate(batch, platform.Workload{Profile: f.prof, MaxDegree: 24})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	nq := float64(len(batch.Queries))
	m["core.model_page_reads_per_query"] = float64(sim.PageReads) / nq
	m["core.page_access_ratio"] = sim.PageAccessRatio
	m["core.sim_qps"] = sim.QPS
	m["core.sim_speedup_cpu"] = ratio(sim.QPS, cpu.QPS)
	return nil
}

// probeSnapshot times restoring the fixture's snapshot in both serving
// modes and sizes it against the vectors it stores.
func probeSnapshot(f *fixture, m metrics) error {
	start := now()
	ram, _, err := engine.Load(f.dir, 0)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	m["snapshot.load_ram_ms"] = ms(now().Sub(start))
	ram.Close()
	start = now()
	paged, err := openPaged(f)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	m["snapshot.open_paged_ms"] = ms(now().Sub(start))
	paged.Close()
	size, err := dirBytes(f.dir)
	if err != nil {
		return fmt.Errorf("snapshot probe: %w", err)
	}
	m["snapshot.save_ms"] = ms(f.saveS)
	m["snapshot.bytes_on_disk"] = float64(size)
	m["snapshot.bytes_per_user_byte"] = float64(size) / float64(userBytes(f, len(f.corpus)))
	return nil
}

// userBytes is the size of vectors at the dataset's at-rest encoding.
func userBytes(f *fixture, vectors int) int {
	return vectors * vec.StoredBytes(f.prof.Elem, f.prof.Dim)
}

// runProbes fills the hnsw, vec, core and snapshot probe metrics.
func runProbes(f *fixture, sample []vec.Vector, m metrics) error {
	idx, batch, err := probeHNSW(f, sample, m)
	if err != nil {
		return err
	}
	if err := probeVec(f, m); err != nil {
		return err
	}
	if err := probeCore(f, idx, batch, m); err != nil {
		return err
	}
	return probeSnapshot(f, m)
}
