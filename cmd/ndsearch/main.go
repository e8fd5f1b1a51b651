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
//	-n       corpus size per dataset (default figures.DefaultScale().N)
//	-batch   default query batch size (default figures.DefaultScale().Batch)
//	-seed    global seed (default figures.DefaultScale().Seed)
//	-j       experiments to run concurrently (default 1; values < 1 run
//	         serially); output is byte-identical to a serial run
//	-quantized  build suite indexes with the SQ8 compressed traversal tier
//	-rerank     exact-rerank width when quantized, 0 = full list
//
// Every index is built once per process through the engine registry
// from its family's DefaultConfig (hnsw, vamana, hcnng, togg), the same
// recipe ndserve builds with.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"ndsearch/internal/figures"
)

func main() {
	def := figures.DefaultScale()
	n := flag.Int("n", def.N, "corpus size per dataset")
	batch := flag.Int("batch", def.Batch, "default query batch size")
	seed := flag.Int64("seed", def.Seed, "global seed")
	jobs := flag.Int("j", 1, "experiments to run concurrently")
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
	scale := figures.Scale{N: *n, Batch: *batch, K: def.K, Seed: *seed,
		Quantized: *quantized, Rerank: *rerank}
	if err := figures.RunMany(figures.NewSuite(scale), args, *jobs, os.Stdout); err != nil {
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
