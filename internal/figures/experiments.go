package figures

import (
	"bytes"
	"fmt"
	"io"
)

// Experiment names in the paper's presentation order — the expansion of
// "all" and the canonical CLI vocabulary.
var experimentOrder = []string{
	"fig1", "fig2", "fig4", "fig10", "fig13", "fig14", "fig15", "fig16",
	"fig17", "fig18", "fig19", "fig20", "fig21", "table1", "discussion",
}

// ExperimentNames returns the known experiment names in order.
func ExperimentNames() []string {
	return append([]string(nil), experimentOrder...)
}

// ExpandNames replaces "all" with the full experiment list, preserving
// the order of everything else.
func ExpandNames(names []string) []string {
	var out []string
	for _, n := range names {
		if n == "all" {
			out = append(out, experimentOrder...)
		} else {
			out = append(out, n)
		}
	}
	return out
}

// knownExperiment reports whether name is a valid experiment.
func knownExperiment(name string) bool {
	for _, n := range experimentOrder {
		if n == name {
			return true
		}
	}
	return false
}

// Run executes one named experiment and returns its tables in print
// order.
func (s *Suite) Run(name string) ([]*Table, error) {
	one := func(t *Table, err error) ([]*Table, error) {
		if err != nil {
			return nil, err
		}
		return []*Table{t}, nil
	}
	two := func(a, b *Table, err error) ([]*Table, error) {
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	}
	switch name {
	case "fig1":
		return one(s.Fig1())
	case "fig2":
		a, err := s.Fig2a()
		if err != nil {
			return nil, err
		}
		b, err := s.Fig2b()
		if err != nil {
			return nil, err
		}
		return []*Table{a, b}, nil
	case "fig4":
		return two(s.Fig4())
	case "fig10":
		return one(s.Fig10())
	case "fig13":
		return one(s.Fig13())
	case "fig14":
		return one(s.Fig14())
	case "fig15":
		return one(s.Fig15())
	case "fig16":
		return one(s.Fig16())
	case "fig17":
		return one(s.Fig17())
	case "fig18":
		return two(s.Fig18())
	case "fig19":
		return one(s.Fig19())
	case "fig20":
		return one(s.Fig20())
	case "fig21":
		return one(s.Fig21())
	case "table1":
		return one(s.Table1())
	case "discussion":
		return one(s.Discussion())
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

// RunMany executes the named experiments with up to jobs running
// concurrently, writing each experiment's tables to w in input order.
// Output is byte-identical to running the experiments serially: each
// experiment renders into its own buffer and buffers are emitted in
// order. The first error aborts the emission (outstanding experiments
// finish, their output is dropped).
func RunMany(s *Suite, names []string, jobs int, w io.Writer) error {
	return runMany(s.Run, names, jobs, w)
}

// runMany is RunMany over any experiment runner.
func runMany(run func(name string) ([]*Table, error), names []string, jobs int, w io.Writer) error {
	names = ExpandNames(names)
	// Validate before launching anything: a typo must fail in
	// microseconds, not after minutes of workload builds.
	for _, name := range names {
		if !knownExperiment(name) {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	jobs = max(1, min(jobs, len(names)))

	bufs := make([]bytes.Buffer, len(names))
	errs := make([]error, len(names))
	done := make([]chan struct{}, len(names))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// The launcher takes a slot before spawning each experiment, so they
	// start in input order; goroutines spawned first and left to race
	// for the semaphore start in scheduler order (newest first).
	sem := make(chan struct{}, jobs)
	go func() {
		for i, name := range names {
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				defer close(done[i])
				tables, err := run(name)
				if err != nil {
					errs[i] = fmt.Errorf("%s: %w", name, err)
					return
				}
				for _, t := range tables {
					t.Fprint(&bufs[i])
				}
			}()
		}
	}()
	// Emit in input order as experiments complete, so a long-running run
	// streams results like the serial path while staying byte-identical.
	// Every experiment has finished once its done channel is closed.
	var firstErr error
	for i := range names {
		<-done[i]
		if firstErr != nil {
			continue
		}
		if errs[i] != nil {
			firstErr = errs[i]
			continue
		}
		if _, err := w.Write(bufs[i].Bytes()); err != nil {
			firstErr = err
		}
	}
	return firstErr
}
