package main

import (
	"math"
	"testing"

	"ndsearch/internal/obs"
)

func TestAttributeSelfTimeArithmetic(t *testing.T) {
	tr := &reqTrace{req: 7}
	root := tr.add(-1, "client", "request", 0, 100)
	eng := tr.add(root, "engine", "search_batch", 10, 80)
	// Two shard searches run in parallel and overlap for 10 us: their
	// union covers 20..70, which is counted once.
	tr.add(eng, "hnsw", "shard_search", 20, 30)
	tr.add(eng, "hnsw", "shard_search", 40, 30)
	self, total := attribute(tr.spans)
	want := map[string]float64{"client": 20, "engine": 30, "hnsw": 50}
	for layer, w := range want {
		if math.Abs(self[layer]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", layer, self[layer], w)
		}
	}
	if total != 100 {
		t.Errorf("self times sum to %g, want the root's 100", total)
	}
}

func TestAttributeCountsSpansOutsideTheRoot(t *testing.T) {
	tr := &reqTrace{}
	root := tr.add(-1, "client", "request", 0, 100)
	tr.add(root, "engine", "search_batch", 50, 100) // misplaced: ends at 150
	_, total := attribute(tr.spans)
	if total != 150 {
		t.Errorf("total = %g, want 150 so the 5%% check can see the misplacement", total)
	}
}

func TestAddStagesParentsAndLayers(t *testing.T) {
	tr := &reqTrace{req: 1}
	root := tr.add(-1, "client", "request", 1000, 500)
	call := tr.add(root, "engine", "search_batch", 1000, 500)
	tr.addStages(call, 1000, []obs.Span{
		{Stage: "shard_search", Shard: 2, Query: 0, StartUS: 5, DurUS: 100, Touches: 9, Faults: 3},
		{Stage: "fanout", Shard: -1, Query: -1, StartUS: 1, DurUS: 300},
		{Stage: "merge", Shard: -1, Query: -1, StartUS: 310, DurUS: 50},
		{Stage: "merge_delta", Shard: -1, Query: 0, StartUS: 311, DurUS: 10},
		{Stage: "coalesce_wait", Shard: -1, Query: -1, StartUS: 0, DurUS: 1},
	})
	byName := map[string]span{}
	for _, s := range tr.spans {
		byName[s.Name] = s
	}
	check := func(name, layer, parent string) {
		t.Helper()
		s := byName[name]
		if s.Layer != layer || tr.spans[s.Parent].Name != parent || s.Req != 1 {
			t.Errorf("%s: layer %q parent %q req %d, want layer %q parent %q req 1",
				name, s.Layer, tr.spans[s.Parent].Name, s.Req, layer, parent)
		}
	}
	check("fanout", "engine", "search_batch")
	check("merge", "engine", "search_batch")
	check("coalesce_wait", "batcher", "search_batch")
	check("shard_search", "hnsw", "fanout")
	check("merge_delta", "delta", "merge")
	if s := byName["shard_search"]; s.StartUS != 1005 || s.Shard != 2 || s.Touches != 9 || s.Faults != 3 {
		t.Errorf("shard_search not rebased or scoped: %+v", s)
	}
	for i, s := range tr.spans {
		if s.ID != i || s.Parent >= i {
			t.Errorf("span %d has ID %d and parent %d; a parent must precede its children", i, s.ID, s.Parent)
		}
	}
}
