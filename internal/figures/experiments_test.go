package figures

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

func expScale() Scale { return Scale{N: 400, Batch: 16, K: 5, Seed: 1} }

func TestExpandNames(t *testing.T) {
	got := ExpandNames([]string{"fig10", "all"})
	if got[0] != "fig10" || len(got) != 1+len(ExperimentNames()) {
		t.Fatalf("ExpandNames = %v", got)
	}
	if got[1] != "fig1" || got[len(got)-1] != "discussion" {
		t.Fatalf("all expansion out of order: %v", got)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := NewSuite(expScale()).Run("fig99"); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	var buf bytes.Buffer
	if err := RunMany(NewSuite(expScale()), []string{"fig10", "fig99"}, 2, &buf); err == nil {
		t.Fatal("RunMany must surface the error")
	} else if !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("error %v does not name the failing experiment", err)
	}
}

// Experiments start in input order whenever jobs < len(names): `all`
// at -j 1 starts with fig1 and streams it, instead of whichever
// experiment the scheduler happens to run first.
func TestRunManyStartsInInputOrder(t *testing.T) {
	names := ExperimentNames()
	for _, jobs := range []int{1, 2} {
		var mu sync.Mutex
		var started []string
		run := func(name string) ([]*Table, error) {
			mu.Lock()
			started = append(started, name)
			mu.Unlock()
			return []*Table{{Title: name}}, nil
		}
		var buf bytes.Buffer
		if err := runMany(run, []string{"all"}, jobs, &buf); err != nil {
			t.Fatal(err)
		}
		if jobs == 1 && !slices.Equal(started, names) {
			t.Fatalf("-j 1 started experiments in order %v, want %v", started, names)
		}
		// With two slots the first two may swap, but nothing starts
		// before the experiment two places ahead of it.
		for i, name := range started {
			if at := slices.Index(names, name); at > i+jobs-1 {
				t.Fatalf("-j %d started %s at position %d: %v", jobs, name, i, started)
			}
		}
		var want bytes.Buffer
		for _, name := range names {
			(&Table{Title: name}).Fprint(&want)
		}
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			t.Fatalf("-j %d output not in input order:\n%s", jobs, buf.String())
		}
	}
}

// The -j invariant: parallel generation is byte-identical to serial.
// The set deliberately mixes fig19 (which upsizes the shared workload
// cache to 8x batch) with experiments that use the default batch, the
// exact interleaving that would diverge if experiments read whole
// cached batches instead of fixed-size prefixes.
func TestRunManyParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment regeneration is slow")
	}
	names := []string{"fig13", "fig19", "fig4", "fig10", "table1", "discussion"}

	var serial bytes.Buffer
	if err := RunMany(NewSuite(expScale()), names, 1, &serial); err != nil {
		t.Fatal(err)
	}
	var parallel bytes.Buffer
	if err := RunMany(NewSuite(expScale()), names, 4, &parallel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			firstDiff(serial.String(), parallel.String()), "")
	}

	// Reversed-order parallel run on a shared suite must also match:
	// output order follows input order, not completion order.
	rev := []string{"discussion", "table1", "fig10"}
	var fwd, bwd bytes.Buffer
	s := NewSuite(expScale())
	if err := RunMany(s, rev, 3, &bwd); err != nil {
		t.Fatal(err)
	}
	for _, n := range rev {
		tables, err := s.Run(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			tb.Fprint(&fwd)
		}
	}
	if !bytes.Equal(fwd.Bytes(), bwd.Bytes()) {
		t.Fatal("RunMany emission does not follow input order")
	}
}

// firstDiff trims two outputs to the first differing line for readable
// failure messages.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\nvs\n" + bl[i]
		}
	}
	return "length mismatch"
}

// Concurrent WorkloadSized calls on one suite must be race-free and
// converge on a single cached workload per key (run under -race).
func TestSuiteConcurrentWorkloads(t *testing.T) {
	s := NewSuite(expScale())
	var wg sync.WaitGroup
	got := make([]*Workload, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := s.Workload("sift-1b", "hnsw")
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = w
		}(i)
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent callers received different workload instances")
		}
	}
}

// Upsizing a workload (fig19 asks for 8x the batch) keeps the slot's
// index and traces only the added queries: the smaller batch is a
// prefix of the larger, which equals a from-scratch trace at that size,
// and callers holding the smaller workload see it unchanged.
func TestWorkloadSizedUpsizeReusesIndex(t *testing.T) {
	s := NewSuite(expScale())
	small, err := s.Workload("sift-1b", "hnsw")
	if err != nil {
		t.Fatal(err)
	}
	batch := s.Scale.Batch
	smallQueries := slices.Clone(small.Batch.Queries)
	big, err := s.WorkloadSized("sift-1b", "hnsw", 4*batch)
	if err != nil {
		t.Fatal(err)
	}
	if big.Index != small.Index {
		t.Fatal("upsizing rebuilt the workload's index")
	}
	if len(big.Batch.Queries) != 4*batch || len(small.Batch.Queries) != batch {
		t.Fatalf("batch sizes %d and %d, want %d and %d",
			len(big.Batch.Queries), len(small.Batch.Queries), 4*batch, batch)
	}
	if !reflect.DeepEqual(big.Batch.Queries[:batch], smallQueries) ||
		!reflect.DeepEqual(small.Batch.Queries, smallQueries) {
		t.Fatal("the smaller batch is not a prefix of the upsized one")
	}
	if math.Float64bits(big.Recall10) != math.Float64bits(small.Recall10) {
		t.Fatalf("recall drifted on upsize: %v vs %v", big.Recall10, small.Recall10)
	}
	fresh, err := NewSuite(expScale()).WorkloadSized("sift-1b", "hnsw", 4*batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Batch, big.Batch) {
		t.Fatal("upsized batch differs from a from-scratch trace at that size")
	}
}
