package main

import (
	"fmt"
	"io"
	"os"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), which is
// what the builder's driver computes spreads from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs sets identical sets of every named workload, untraced and
// traced, and prints how far each metric moved between runs of the same
// code. An end-to-end metric passes when its interquartile range, as a
// share of its median, stays within its bound; setup_s is exempt, as it
// is in the driver's check.
func runAA(cfg config, names []string, sets int, stdout io.Writer) int {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	failed := 0
	for set := 0; set < sets; set++ {
		for _, name := range names {
			for _, traced := range []bool{false, true} {
				cfg.workload, cfg.traced = name, traced
				fmt.Fprintf(os.Stderr, "ndbench: set %d/%d %s traced=%v\n", set+1, sets, name, traced)
				res, err := run(cfg, io.Discard)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ndbench: %s: %v\n", name, err)
					return 1
				}
				failed += res.Failed
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					values[key{name, d.Name}] = append(values[key{name, d.Name}], res.Metrics[d.Name].Value)
				}
			}
		}
	}
	code := 0
	fmt.Fprintf(stdout, "| workload | metric | min | median | max | IQR/median | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, name := range names {
			for _, d := range defs {
				xs := values[key{name, d.Name}]
				q1, q2, q3 := quartiles(xs)
				s := sortedCopy(xs)
				verdict, bound := "", ""
				switch {
				case d.Name == "setup_s": // the driver bounds its median, not its spread
					verdict, bound = "exempt", fmt.Sprintf("%.3f", d.Bound)
				case d.Bound > 0 && ratio(q3-q1, q2) <= d.Bound:
					verdict, bound = "PASS", fmt.Sprintf("%.3f", d.Bound)
				case d.Bound > 0:
					verdict, bound, code = "FAIL", fmt.Sprintf("%.3f", d.Bound), 1
				case s[0] == s[len(s)-1]:
					verdict = "exact"
				}
				fmt.Fprintf(stdout, "| %s | %s | %.4g | %.4g | %.4g | %.4f | %s | %s |\n",
					name, d.Name, s[0], q2, s[len(s)-1], ratio(q3-q1, q2), bound, verdict)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d sets, seed %d, %v windows, %d failed operations\n", sets, cfg.seed, cfg.window, failed)
	if failed > 0 {
		code = 1
	}
	return code
}
