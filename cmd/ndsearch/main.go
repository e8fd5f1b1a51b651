// Command ndsearch regenerates the paper's tables and figures from the
// simulation suite.
//
// Usage:
//
//	ndsearch [flags] <experiment>...
//
// where each experiment is one of: fig1 fig2 fig4 fig10 fig13 fig14
// fig15 fig16 fig17 fig18 fig19 fig20 fig21 table1 discussion all
//
// Flags:
//
//	-n       corpus size per dataset (default 4000)
//	-batch   default query batch size (default 1024)
//	-seed    global seed (default 1)
//	-j       experiments to run concurrently (default 1; values < 1 run
//	         serially); output is byte-identical to a serial run
//	-cache   directory for on-disk index snapshots keyed by
//	         (profile, algo, n, seed); later runs warm-start instead of
//	         rebuilding, with byte-identical output (empty disables)
//	-quantized  build suite indexes with the SQ8 compressed traversal
//	            tier (cache entries keyed separately, "-sq8" suffix)
//	-rerank     exact-rerank width when quantized, 0 = full list
//
// Every index is built through the engine registry from its family's
// DefaultConfig (hnsw, vamana, hcnng, togg), the same recipe ndserve
// builds with.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ndsearch/internal/figures"
)

func main() {
	n := flag.Int("n", 4000, "corpus size per dataset")
	batch := flag.Int("batch", 1024, "default query batch size")
	seed := flag.Int64("seed", 1, "global seed")
	jobs := flag.Int("j", 1, "experiments to run concurrently")
	cacheDir := flag.String("cache", "", "index snapshot cache directory (empty disables)")
	quantized := flag.Bool("quantized", false, "build suite indexes with the SQ8 compressed traversal tier")
	rerank := flag.Int("rerank", 0, "exact-rerank width for -quantized (0 = full candidate list)")
	flag.Parse()
	if err := validateFlags(*n, *batch, *rerank); err != nil {
		fmt.Fprintf(os.Stderr, "ndsearch: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintf(os.Stderr, "usage: ndsearch [flags] <%s|all>...\n",
			strings.Join(figures.ExperimentNames(), "|"))
		os.Exit(2)
	}
	scale := figures.Scale{N: *n, Batch: *batch, K: 10, Seed: *seed,
		Quantized: *quantized, Rerank: *rerank}
	suite := figures.NewSuite(scale)
	suite.CacheDir = *cacheDir
	if err := figures.RunMany(suite, args, *jobs, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "ndsearch: %v\n", err)
		os.Exit(1)
	}
}

// validateFlags rejects flag values no experiment can run with, before
// any workload is built: the corpus and the query batch need at least
// one vector each, and the rerank width is a count (0 = full list).
func validateFlags(n, batch, rerank int) error {
	if n < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", n)
	}
	if batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", batch)
	}
	if rerank < 0 {
		return fmt.Errorf("-rerank must be >= 0 (0 = full candidate list), got %d", rerank)
	}
	return nil
}
