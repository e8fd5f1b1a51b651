// Command ndserve runs the sharded batch-search engine as an HTTP
// service over a generated corpus — the serving-path counterpart to
// cmd/ndsearch's figure reproduction.
//
// Usage:
//
//	ndserve [flags]
//
// Endpoints:
//
//	POST /search   {"query":[...], "k":10} or {"queries":[[...],...], "k":10}
//	POST /upsert   {"id":7, "vector":[...]} or {"items":[{"id":7,"vector":[...]},...]}
//	POST /delete   {"id":7} or {"ids":[7, 8, ...]}
//	POST /compact  drain the delta tier into a new base generation now
//	GET  /healthz  liveness + engine configuration (incl. generation count)
//	GET  /stats    cumulative serving counters (incl. mutation/compaction)
//	GET  /metrics  Prometheus text exposition (latency/batch-size
//	               histograms, compaction, page and mutation counters;
//	               DESIGN.md §13)
//	GET  /debug/pprof/*  runtime profilers (only with -pprof)
//
// Flags:
//
//	-addr           listen address (default :8080)
//	-dataset        dataset profile (default sift-1b)
//	-algo           shard index family, any registered algorithm
//	                (engine.Algos: exact, hnsw, diskann, hcnng, togg,
//	                ivfpq; default hnsw)
//	-n              corpus size (default 20000)
//	-shards         shard count (default 4)
//	-workers        worker-pool size (default GOMAXPROCS)
//	-seed           generation/build seed (default 1)
//	-quantized      build shards with the SQ8 compressed traversal tier
//	                (graph families only)
//	-rerank         exact-rerank width when quantized, 0 = full list (default 0)
//	-compact-threshold  delta shadow-set size that triggers background
//	                compaction, 0 disables (manual /compact only;
//	                default engine.DefaultCompactThreshold; RAM serving
//	                only — a paged engine never starts a compactor)
//	-slow-query     log /search requests slower than this as one
//	                structured line each (0 disables; default 0)
//	-pprof          mount net/http/pprof under /debug/pprof/ (default off)
//	-save-index     build the engine, persist it to this directory, exit;
//	                the directory must not already hold a snapshot
//	-load-index     restore the engine from this directory instead of
//	                building; the build flags (-dataset -algo -n -shards
//	                -seed -quantized -rerank) are then a usage error
//	-serve          shard serving mode with -load-index: ram (default,
//	                fully resident), mmap, or readat (beyond-RAM paged)
//	-cache-pages    paged serving: per-shard page-cache budget in 4 KiB
//	                pages (0 = snapshot default)
//
// /upsert and /delete land writes in the engine's mutable delta tier;
// searches see them immediately, exactly merged against the immutable
// base shards under tombstone filtering (DESIGN.md §12). Compaction —
// background past -compact-threshold, or on demand via POST /compact —
// drains the delta into a freshly built base generation.
//
// Every /search request, single query or "queries" batch, runs as one
// engine batch; the engine's task channel is the only admission queue.
//
// -save-index and -load-index are the build-once / serve-many split:
// one invocation pays graph construction and writes a checksummed
// snapshot (internal/snapshot, DESIGN.md §8); every later invocation
// warm-starts from the snapshot in file-I/O time without invoking any
// index build. With -serve mmap (or readat), the loaded shards are not
// materialized at all: node records are traversed straight out of the
// page-aligned snapshot files through a bounded page cache (DESIGN.md
// §10), serving corpora larger than resident memory with results
// byte-identical to -serve ram; /stats then reports the software
// page-touch and fault counters. On SIGINT/SIGTERM the server drains gracefully:
// in-flight searches complete before the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"ndsearch/internal/dataset"
	"ndsearch/internal/engine"
	"ndsearch/internal/snapshot"
)

// shutdownGrace bounds how long a drain may take after a signal.
const shutdownGrace = 15 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	profName := flag.String("dataset", "sift-1b", "dataset profile name")
	algo := flag.String("algo", "hnsw",
		fmt.Sprintf("shard index algorithm (%s)", strings.Join(engine.Algos(), ", ")))
	n := flag.Int("n", 20000, "corpus size")
	shards := flag.Int("shards", 4, "shard count")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "generation/build seed")
	quantized := flag.Bool("quantized", false,
		"build shard indexes with the SQ8 compressed traversal tier (graph families only)")
	rerank := flag.Int("rerank", 0,
		"exact-rerank width for -quantized (0 = rerank the full candidate list)")
	saveIndex := flag.String("save-index", "", "build the engine, save it to this directory, and exit")
	loadIndex := flag.String("load-index", "", "serve from a saved engine directory (skips corpus generation and build)")
	serveMode := flag.String("serve", engine.ServeRAM,
		"shard serving mode with -load-index: ram, mmap, or readat (paged beyond-RAM serving)")
	cachePages := flag.Int("cache-pages", 0,
		"paged serving: per-shard page-cache budget in 4 KiB pages (0 = snapshot default)")
	compactThreshold := flag.Int("compact-threshold", engine.DefaultCompactThreshold,
		"delta shadow-set size that triggers background compaction (0 disables; POST /compact still works)")
	slowQuery := flag.Duration("slow-query", 0,
		"log /search requests slower than this as one structured line each (0 disables)")
	pprofOn := flag.Bool("pprof", false,
		"mount the net/http/pprof profilers under /debug/pprof/")
	flag.Parse()
	var explicit []string
	flag.Visit(func(f *flag.Flag) { explicit = append(explicit, f.Name) })

	if err := validateFlags(*n, *shards, *workers, *rerank,
		*saveIndex, *loadIndex, *serveMode, *cachePages, *compactThreshold, *slowQuery, explicit); err != nil {
		fmt.Fprintf(os.Stderr, "ndserve: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var (
		srv *Server
		err error
	)
	if *loadIndex != "" {
		lo := engine.LoadOptions{Workers: *workers, Serve: *serveMode, CachePages: *cachePages}
		srv, err = loadServer(*loadIndex, lo)
	} else {
		opts := engine.IndexOpts{Quantized: *quantized, Rerank: *rerank}
		srv, err = buildServer(*profName, *algo, *n, *shards, *workers, *seed, opts)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndserve: %v\n", err)
		os.Exit(1)
	}
	if *compactThreshold > 0 && srv.engine.ServeMode() == engine.ServeRAM {
		srv.EnableCompaction(*compactThreshold)
		log.Printf("ndserve: background compaction at delta shadow-set size %d", *compactThreshold)
	}
	if *slowQuery > 0 {
		srv.SetSlowQueryLog(*slowQuery, nil)
		log.Printf("ndserve: logging /search requests slower than %v", *slowQuery)
	}
	if *pprofOn {
		srv.EnablePprof()
		log.Printf("ndserve: pprof profilers mounted under /debug/pprof/")
	}

	if *saveIndex != "" {
		start := time.Now()
		if err := srv.engine.Save(*saveIndex); err != nil {
			fmt.Fprintf(os.Stderr, "ndserve: %v\n", err)
			os.Exit(1)
		}
		log.Printf("ndserve: saved %d-shard index to %s in %v",
			srv.engine.Shards(), *saveIndex, time.Since(start).Round(time.Millisecond))
		srv.Close()
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ndserve: %v\n", err)
		os.Exit(1)
	}
	log.Printf("ndserve: listening on %s", ln.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := serve(&http.Server{Handler: srv.Handler()}, srv, ln, sig, shutdownGrace); err != nil {
		log.Fatal(err)
	}
}

// validateFlags rejects configurations that would build a broken engine,
// before any work happens. workers may be zero (its documented default)
// but never negative; n and shards must be positive; rerank must be
// non-negative; -save-index and -load-index are mutually
// exclusive (save persists a fresh build), and with -load-index the
// saved index fixes everything the build flags describe, so setting one
// explicitly (explicit lists the flag names given on the command line)
// is rejected rather than silently ignored; paged -serve modes need a
// snapshot directory to page from, so they require -load-index;
// compact-threshold may be zero (background compaction disabled) but
// never negative, and a paged engine cannot compact, so an explicitly
// set positive threshold beside a paged -serve is rejected; slow-query
// may be zero (log disabled) but never negative.
func validateFlags(n, shards, workers, rerank int,
	saveIndex, loadIndex, serveMode string, cachePages, compactThreshold int,
	slowQuery time.Duration, explicit []string) error {
	if loadIndex == "" {
		if n < 1 {
			return fmt.Errorf("-n must be >= 1, got %d", n)
		}
		if shards < 1 {
			return fmt.Errorf("-shards must be >= 1, got %d", shards)
		}
	} else {
		for _, name := range explicit {
			switch name {
			case "quantized", "rerank", "algo", "dataset", "n", "shards", "seed":
				return fmt.Errorf("-%s describes a fresh build; with -load-index the saved index decides it (see /healthz)", name)
			}
		}
	}
	switch serveMode {
	case engine.ServeRAM:
	case engine.ServeMmap, engine.ServeReadAt:
		if loadIndex == "" {
			return fmt.Errorf("-serve %s pages node records out of a saved snapshot; it requires -load-index", serveMode)
		}
	default:
		return fmt.Errorf("-serve must be %s, %s, or %s, got %q",
			engine.ServeRAM, engine.ServeMmap, engine.ServeReadAt, serveMode)
	}
	if cachePages < 0 {
		return fmt.Errorf("-cache-pages must be >= 0 (0 = snapshot default), got %d", cachePages)
	}
	if rerank < 0 {
		return fmt.Errorf("-rerank must be >= 0 (0 = full candidate list), got %d", rerank)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = GOMAXPROCS), got %d", workers)
	}
	if saveIndex != "" && loadIndex != "" {
		return fmt.Errorf("-save-index and -load-index are mutually exclusive")
	}
	if compactThreshold < 0 {
		return fmt.Errorf("-compact-threshold must be >= 0 (0 disables background compaction), got %d", compactThreshold)
	}
	if compactThreshold > 0 && serveMode != engine.ServeRAM && slices.Contains(explicit, "compact-threshold") {
		return fmt.Errorf("-compact-threshold %d: a paged engine (-serve %s) cannot read its corpus back to compact", compactThreshold, serveMode)
	}
	if slowQuery < 0 {
		return fmt.Errorf("-slow-query must be >= 0 (0 disables the slow-query log), got %v", slowQuery)
	}
	return nil
}

// serve runs hsrv on ln until the listener fails or a shutdown signal
// arrives, then drains gracefully: http.Server.Shutdown (with a
// deadline) stops accepting and waits for in-flight handlers — so
// searches whose tasks are queued in the engine complete and respond —
// and only then srv.Close stops the engine's worker pool. Both exit
// paths go through Shutdown first: handlers may still be mid-search
// even when the accept loop fails, and closing the engine under them
// would panic their task sends. If the grace deadline expires with
// handlers still running, srv is left unclosed on purpose (the process
// is exiting anyway).
func serve(hsrv *http.Server, srv *Server, ln net.Listener, sig <-chan os.Signal, grace time.Duration) error {
	errCh := make(chan error, 1)
	go func() { errCh <- hsrv.Serve(ln) }()
	var serveErr error
	select {
	case serveErr = <-errCh:
		log.Printf("ndserve: serve failed (%v): draining in-flight searches", serveErr)
	case s := <-sig:
		log.Printf("ndserve: %v: draining in-flight searches", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hsrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("ndserve: shutdown: %w", err)
	}
	srv.Close()
	if serveErr != nil {
		return serveErr
	}
	log.Printf("ndserve: drained, exiting")
	return nil
}

// buildServer generates the corpus, builds the sharded engine, and
// wraps it in a Server. Split from main so tests can drive it.
func buildServer(profName, algo string, n, shards, workers int, seed int64,
	opts engine.IndexOpts) (*Server, error) {
	prof, err := dataset.ProfileByName(profName)
	if err != nil {
		return nil, err
	}
	d, err := dataset.Generate(prof, dataset.GenConfig{N: n, Queries: 1, Seed: seed})
	if err != nil {
		return nil, err
	}
	builder, err := engine.BuilderWithOpts(algo, prof.Metric, seed, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	e, err := engine.New(d.Vectors, engine.Config{
		Shards: shards, Workers: workers, Builder: builder,
		Meta: engine.Meta{
			Algo: algo, Dataset: profName, Seed: seed, Elem: prof.Elem,
			Quantized: opts.Quantized, Rerank: opts.Rerank,
		},
	})
	if err != nil {
		return nil, err
	}
	mode := ""
	if opts.Quantized {
		mode = " (sq8)"
	}
	log.Printf("ndserve: built %d-shard %s%s engine over %d %s vectors in %v",
		e.Shards(), algo, mode, e.Len(), profName, time.Since(start).Round(time.Millisecond))
	return NewServer(e, prof.Dim, profName, algo), nil
}

// loadServer warm-starts the engine from a snapshot directory written
// by -save-index (or engine.Save): no corpus generation, no index
// build — the serving configuration comes from the manifest. With a
// paged serving mode, shard node records stay in the files and are
// traversed through a bounded per-shard page cache.
func loadServer(dir string, lo engine.LoadOptions) (*Server, error) {
	start := time.Now()
	e, man, err := engine.LoadWithOptions(dir, lo)
	if err != nil {
		return nil, err
	}
	log.Printf("ndserve: loaded %d-shard %s engine over %d %s vectors from %s in %v (serve=%s, format v%d)",
		e.Shards(), man.Algo, e.Len(), man.Dataset, dir,
		time.Since(start).Round(time.Millisecond), e.ServeMode(), snapshot.FormatVersion)
	return NewServer(e, man.Dim, man.Dataset, man.Algo), nil
}
