package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesDefs keeps the contract file and the tables
// the harness reports from in step.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("BENCHMARK.json workloads differ from workloadDefs:\n%+v\n%+v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from endToEnd:\n%+v\n%+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayer")
	}
}

// TestSmoke runs all four workloads, untraced and traced, on the smoke
// profile — including the ndserve subprocess — and holds the whole to
// 20 seconds.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ndserve and runs eight one-second windows")
	}
	work := t.TempDir()
	var ndserve string // built by the first pass, reused by the second
	start := time.Now()
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		args := []string{"-smoke", "-workload", "all", "-trace", c.trace, "-work", work, "-out", filepath.Join(work, "out")}
		if ndserve != "" {
			args = append(args, "-ndserve", ndserve)
		}
		var out bytes.Buffer
		if code := realMain(args, &out); code != 0 {
			t.Fatalf("ndbench %v exited %d:\n%s", args, code, out.String())
		}
		ndserve = filepath.Join(work, "ndserve")
		var results []result
		sc := bufio.NewScanner(&out)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "{") {
				var r result
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatal(err)
				}
				results = append(results, r)
			}
		}
		if len(results) != len(workloadDefs) {
			t.Fatalf("trace %s: %d result lines, want %d", c.trace, len(results), len(workloadDefs))
		}
		for i, r := range results {
			name := workloadDefs[i].Name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d", name, c.trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(c.defs) {
				t.Errorf("%s trace %s: %d metrics, want %d", name, c.trace, len(r.Metrics), len(c.defs))
			}
			for _, d := range c.defs {
				if got, ok := r.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace %s: metric %s missing or in unit %q", name, c.trace, d.Name, got.Unit)
				}
				if d.Bound > 0 && r.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g", name, d.Name, r.Metrics[d.Name].Value)
				}
			}
			if c.trace == "1" {
				if r.Metrics["trace.spans"].Value == 0 || r.Metrics["trace.overhead_ratio"].Value == 0 {
					t.Errorf("%s: traced pass recorded no spans or no overhead ratio", name)
				}
				if _, err := os.Stat(filepath.Join(work, "out", name+".spans.jsonl")); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
	if took := time.Since(start); took > 20*time.Second {
		t.Errorf("smoke profile took %v, want under 20s", took)
	}
}
