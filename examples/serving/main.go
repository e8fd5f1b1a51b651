// Serving example: end-to-end request latency under load, now driven
// through the sharded batch-search engine. An open-loop Poisson arrival
// stream feeds a batching front-end; batches execute on three backends:
// the CPU baseline model, the simulated NDSEARCH device, and the real
// concurrent engine (measured wall-clock over sharded HNSW). The output
// shows what the paper's throughput numbers mean for tail latency in a
// vector database deployment, and how shard parallelism moves the
// saturation point.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"ndsearch/internal/core"
	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/nand"
	"ndsearch/internal/obs"
	"ndsearch/internal/platform"
	"ndsearch/internal/trace"
	"ndsearch/internal/workload"
)

func main() {
	prof := dataset.Sift1B()
	d, err := dataset.Generate(prof, dataset.GenConfig{N: 4000, Queries: 1024, Seed: 31})
	if err != nil {
		log.Fatal(err)
	}
	idx, err := hnsw.Build(d.Vectors, hnsw.Config{
		M: 12, EfConstruction: 100, EfSearch: 48, Metric: prof.Metric, Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	pool := &trace.Batch{Dataset: prof.Name, Algo: "hnsw"}
	for qi, q := range d.Queries {
		_, tr := idx.SearchTraced(q, 10)
		tr.QueryID = qi
		pool.Queries = append(pool.Queries, tr)
	}

	cfg := core.DefaultConfig()
	cfg.Params.Geometry = nand.ScaledGeometry()
	sys, err := core.NewSystemFromIndex(idx, prof, cfg)
	if err != nil {
		log.Fatal(err)
	}
	cpu := platform.NewCPU()
	w := platform.Workload{Profile: prof, MaxDegree: 24}

	// The engine backend: the same corpus sharded 4 ways behind a
	// bounded worker pool, searched for real (wall-clock latency).
	builder, err := engine.BuilderByName("hnsw", prof.Metric, 4)
	if err != nil {
		log.Fatal(err)
	}
	buildStart := time.Now()
	eng, err := engine.New(d.Vectors, engine.Config{
		Shards: 4, Builder: builder,
		Meta: engine.Meta{Algo: "hnsw", Dataset: prof.Name, Seed: 4, Elem: prof.Elem},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	buildTime := time.Since(buildStart)

	// Warm-start demonstration: persist the built shard set and restore
	// it without invoking any index build — the build-once / serve-many
	// split the paper's on-SSD indexes assume. The restored engine is
	// byte-identical on every query.
	snapDir, err := os.MkdirTemp("", "ndsearch-snap")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(snapDir)
	saveStart := time.Now()
	if err := eng.Save(snapDir); err != nil {
		log.Fatal(err)
	}
	saveTime := time.Since(saveStart)
	loadStart := time.Now()
	warm, man, err := engine.Load(snapDir, 0)
	if err != nil {
		log.Fatal(err)
	}
	loadTime := time.Since(loadStart)
	for _, q := range d.Queries[:8] {
		a, b := eng.Search(q, 10), warm.Search(q, 10)
		if len(a) != len(b) {
			log.Fatalf("warm-start mismatch: %d vs %d results", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				log.Fatalf("warm-start mismatch at %d: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	warm.Close()
	fmt.Printf("warm-start: built %d-shard %s engine in %v; saved in %v, restored in %v (%.0fx faster than building)\n",
		eng.Shards(), man.Algo, buildTime.Round(time.Millisecond),
		saveTime.Round(time.Millisecond), loadTime.Round(time.Millisecond),
		float64(buildTime)/float64(loadTime))
	fmt.Println("restored engine verified byte-identical on sample queries")
	fmt.Println()

	// Batch runners sample the traced pool at the requested batch size.
	sub := func(size int) *trace.Batch {
		if size > len(pool.Queries) {
			size = len(pool.Queries)
		}
		return &trace.Batch{Dataset: pool.Dataset, Algo: pool.Algo, Queries: pool.Queries[:size]}
	}
	ndRun := func(size int) (time.Duration, error) {
		r, err := sys.SimulateBatch(sub(size))
		if err != nil {
			return 0, err
		}
		return r.Latency, nil
	}
	cpuRun := func(size int) (time.Duration, error) {
		r, err := cpu.Simulate(sub(size), w)
		if err != nil {
			return 0, err
		}
		return r.Latency, nil
	}
	engineRun := func(size int) (time.Duration, error) {
		if size > len(d.Queries) {
			size = len(d.Queries)
		}
		_, st := eng.SearchBatch(d.Queries[:size], 10)
		return st.Latency, nil
	}
	// The §13 observability surface over the same stack: the engine's
	// instruments on one registry. ndserve exposes this at GET /metrics;
	// here we scrape it in-process after the runs.
	reg := obs.NewRegistry()
	eng.EnableMetrics(reg)

	fmt.Println("vector-database serving on a billion-scale (sift-profile) corpus")
	fmt.Printf("%10s  %-9s %10s %10s %10s %10s  %s\n",
		"offered", "device", "p50", "p95", "p99", "xput", "state")
	for _, rate := range []float64{2000, 10000, 40000} {
		scfg := workload.Config{
			ArrivalRate: rate, Requests: 3000, MaxBatch: 512,
			FlushAfter: 2 * time.Millisecond, Seed: 7,
		}
		for _, dev := range []struct {
			name string
			run  workload.BatchRunner
		}{{"CPU", cpuRun}, {"NDSEARCH", ndRun}, {"engine", engineRun}} {
			res, err := workload.Simulate(scfg, dev.run)
			if err != nil {
				log.Fatal(err)
			}
			state := "stable"
			if res.Saturated {
				state = "SATURATED"
			}
			fmt.Printf("%7.0f/s  %-9s %10v %10v %10v %9.0f/s  %s\n",
				rate, dev.name,
				res.P50.Round(10*time.Microsecond),
				res.P95.Round(10*time.Microsecond),
				res.P99.Round(10*time.Microsecond),
				res.Throughput, state)
		}
	}
	st := eng.Stats()
	fmt.Printf("\nengine counters: %d batches, %d queries, %d shard searches, mean %v/query\n",
		st.Batches, st.Queries, st.ShardSearches, st.MeanQueryLatency().Round(time.Microsecond))
	fmt.Printf("per-shard searches: %v\n", st.PerShardSearches)

	var scrape strings.Builder
	if err := reg.WritePrometheus(&scrape); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected /metrics samples (Prometheus text exposition):")
	for _, line := range strings.Split(scrape.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "nd_search_latency_seconds_count"),
			strings.HasPrefix(line, "nd_search_queries_total"),
			strings.HasPrefix(line, "nd_search_batches_total"),
			strings.HasPrefix(line, "nd_live_vectors"):
			fmt.Println("  " + line)
		}
	}
	fmt.Println("the CPU node saturates an order of magnitude earlier; NDSEARCH")
	fmt.Println("holds millisecond-scale tails at loads that melt the host baseline,")
	fmt.Println("and the sharded engine is the software seam those gains flow through.")
}
