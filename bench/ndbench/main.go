// Command ndbench is the repeatable benchmark of the ndsearch serving
// stack: four workloads, five end-to-end metrics measured with tracing
// off, and a traced pass that attributes time to single layers. See
// ../README.md for the definitions and ../../BENCHMARK.json for the
// contract the builder's driver runs it under.
//
// Usage (from bench/):
//
//	go run ./ndbench -workload <name|all> [-seed 1] [-seconds 24] [-trace 0|1]
//	go run ./ndbench -aa 5
//	go run ./ndbench -smoke -workload all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"time"
)

// metrics holds measured values by metric name.
type metrics map[string]float64

type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	profile  profile
	ndserve  string // ndserve binary
	work     string // scratch directory for snapshots
	out      string // where the traced pass writes span files
}

// result is the last line a run prints, in the shape the driver reads.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("ndbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: ram_batch, http_single, paged_batch, mutate_mix or all")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	secs := fs.Float64("seconds", 24, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass, per-layer metrics")
	aa := fs.Int("aa", 0, "run this many identical sets back to back and print each metric's spread against its bound")
	smoke := fs.Bool("smoke", false, "tiny corpus and 1 s windows, for the harness's own test")
	ndserve := fs.String("ndserve", "", "ndserve binary for http_single (default: built into the work directory)")
	work := fs.String("work", "", "scratch directory (default: a temporary directory, removed at exit)")
	out := fs.String("out", "ndbench-out", "directory the traced pass writes <workload>.spans.jsonl into")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{
		seed: *seed, window: time.Duration(*secs * float64(time.Second)), traced: *trace == 1,
		profile: fullProfile, ndserve: *ndserve, work: *work, out: *out,
	}
	if *smoke {
		cfg.profile, cfg.window = smokeProfile, time.Second
	}
	var names []string
	for _, w := range workloadDefs {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 || cfg.window <= 0 || *trace < 0 || *trace > 1 || *aa < 0 {
		fmt.Fprintf(os.Stderr, "ndbench: bad -workload %q, -seconds %v, -trace %d or -aa %d\n", *workload, *secs, *trace, *aa)
		fs.Usage()
		return 2
	}
	if cfg.work == "" {
		dir, err := os.MkdirTemp("", "ndbench-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndbench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		cfg.work = dir
	}
	if err := prepare(&cfg, names); err != nil {
		fmt.Fprintf(os.Stderr, "ndbench: %v\n", err)
		return 1
	}
	if *aa > 0 {
		return runAA(cfg, names, *aa, stdout)
	}
	code := 0
	for _, name := range names {
		cfg.workload = name
		res, err := run(cfg, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndbench: %s: %v\n", name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ndbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// prepare makes the work directory and, when http_single will run and
// no ndserve binary was given, builds one there.
func prepare(cfg *config, names []string) error {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	if cfg.ndserve != "" || !slices.Contains(names, "http_single") {
		return nil
	}
	cfg.ndserve = filepath.Join(cfg.work, "ndserve")
	cmd := exec.Command("go", "build", "-o", cfg.ndserve, "ndsearch/cmd/ndserve")
	if outp, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build ndserve: %v\n%s", err, outp)
	}
	return nil
}

// emit prints every metric of defs by name and unit and packs them into
// the result. A value measured under a name defs lacks is a harness bug.
func emit(stdout io.Writer, workload string, defs []metricDef, m metrics, res *result) error {
	res.Metrics = make(map[string]metricOut, len(defs))
	for _, d := range defs {
		res.Metrics[d.Name] = metricOut{Value: m[d.Name], Unit: d.Unit}
		fmt.Fprintf(stdout, "%-12s %-40s %14.4f %s\n", workload, d.Name, m[d.Name], d.Unit)
	}
	if len(m) > len(defs) {
		for _, d := range defs {
			delete(m, d.Name)
		}
		return fmt.Errorf("metrics measured but not defined: %v", m)
	}
	return nil
}
