package ann

import (
	"slices"
	"testing"

	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// stubIndex wraps brute force with a truncated beam so tuning has a
// knob whose recall is monotone: with beam b it returns the exact top-b
// reranked to k (recall = min(1, coverage)).
type stubIndex struct {
	data   []vec.Vector
	metric vec.Metric
	beam   int
	// noiseEvery degrades one result per query for small beams to make
	// recall non-trivial.
}

func (s *stubIndex) Search(q vec.Vector, k int) []Neighbor { return s.SearchFilter(q, k, nil) }

func (s *stubIndex) SearchFilter(q vec.Vector, k int, skip func(uint32) bool) []Neighbor {
	full := BruteForce(s.metric, s.data, q, s.beam)
	if skip != nil {
		full = slices.DeleteFunc(full, func(n Neighbor) bool { return skip(n.ID) })
	}
	// Keep only every other candidate when the beam is tiny, simulating
	// a weak search.
	if s.beam < 8 {
		var out []Neighbor
		for i, n := range full {
			if i%2 == 0 {
				out = append(out, n)
			}
		}
		full = out
	}
	if k < len(full) {
		full = full[:k]
	}
	return full
}

func (s *stubIndex) SearchTraced(q vec.Vector, k int) ([]Neighbor, trace.Query) {
	return s.Search(q, k), trace.Query{}
}
func (s *stubIndex) Graph() GraphView   { return nil }
func (s *stubIndex) Len() int           { return len(s.data) }
func (s *stubIndex) Metric() vec.Metric { return s.metric }
func (s *stubIndex) SetBeamWidth(w int) {
	if w >= 1 {
		s.beam = w
	}
}

func TestTuneBeamReachesTarget(t *testing.T) {
	data := randomData(300, 6, 3)
	queries := randomData(10, 6, 4)
	idx := &stubIndex{data: data, metric: vec.L2, beam: 5}
	res, err := TuneBeam(idx, vec.L2, data, queries, 5, 0.99, 256)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Achieved {
		t.Fatalf("target not achieved: %+v", res)
	}
	if res.Recall < 0.99 {
		t.Errorf("recall %.3f below target", res.Recall)
	}
	if res.Beam < 5 || res.Beam > 256 {
		t.Errorf("beam %d out of range", res.Beam)
	}
	// The index must be left at the tuned width.
	if idx.beam != res.Beam {
		t.Errorf("index beam %d != tuned %d", idx.beam, res.Beam)
	}
}

func TestTuneBeamUnreachableTarget(t *testing.T) {
	data := randomData(100, 4, 5)
	queries := randomData(5, 4, 6)
	idx := &stubIndex{data: data, metric: vec.L2, beam: 4}
	// maxBeam 6 keeps the stub in its degraded mode: recall stays < 1.
	res, err := TuneBeam(idx, vec.L2, data, queries, 4, 0.999, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Achieved {
		t.Errorf("impossible target reported achieved: %+v", res)
	}
}

func TestTuneBeamValidation(t *testing.T) {
	data := randomData(10, 3, 7)
	idx := &stubIndex{data: data, metric: vec.L2, beam: 2}
	if _, err := TuneBeam(idx, vec.L2, data, nil, 3, 0.9, 10); err == nil {
		t.Error("no queries must fail")
	}
	if _, err := TuneBeam(idx, vec.L2, data, data[:2], 0, 0.9, 10); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := TuneBeam(idx, vec.L2, data, data[:2], 3, 1.5, 10); err == nil {
		t.Error("target > 1 must fail")
	}
	if _, err := TuneBeam(idx, vec.L2, data, data[:2], 3, 0, 10); err == nil {
		t.Error("target 0 must fail")
	}
}
