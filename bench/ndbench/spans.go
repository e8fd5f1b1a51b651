package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ndsearch/internal/obs"
)

// span is one interval recorded at a layer boundary. All spans of one
// client request share Req; Parent is the ID of the span that caused
// this one (-1 for the request's root). Times are microseconds on the
// harness clock, from the start of the measured window.
type span struct {
	Req     int     `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Layer   string  `json:"layer"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Shard   int     `json:"shard"`
	Query   int     `json:"query"`
	Touches uint64  `json:"touches,omitempty"`
	Faults  uint64  `json:"faults,omitempty"`
}

// reqTrace collects the spans of one traced client request. A span's ID
// is its index in spans, so a parent always precedes its children.
type reqTrace struct {
	req   int
	spans []span
}

// add records a harness-side span and returns its ID.
func (t *reqTrace) add(parent int, layer, name string, startUS, durUS float64) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Req: t.req, ID: id, Parent: parent, Layer: layer, Name: name,
		StartUS: startUS, DurUS: durUS, Shard: -1, Query: -1,
	})
	return id
}

// stageLayer maps the stage names the program records (DESIGN.md §13)
// to the module that spends the time.
var stageLayer = map[string]string{
	"coalesce_wait": "batcher",
	"fanout":        "engine",
	"merge":         "engine",
	"merge_base":    "engine",
	"shard_search":  "hnsw",
	"merge_delta":   "delta",
	"merge_frozen":  "delta",
}

// addStages adopts the spans the program recorded for this request,
// rebased by originUS (the program trace's start on the harness clock).
// fanout, merge and coalesce_wait hang off parent; shard searches hang
// off fanout and the per-tier folds off merge.
func (t *reqTrace) addStages(parent int, originUS float64, stages []obs.Span) {
	fanout, merge := parent, parent
	adopt := func(s obs.Span, parent int) int {
		id := t.add(parent, stageLayer[s.Stage], s.Stage, originUS+s.StartUS, s.DurUS)
		sp := &t.spans[id]
		sp.Shard, sp.Query, sp.Touches, sp.Faults = s.Shard, s.Query, s.Touches, s.Faults
		return id
	}
	for _, s := range stages {
		switch s.Stage {
		case "fanout":
			fanout = adopt(s, parent)
		case "merge":
			merge = adopt(s, parent)
		case "coalesce_wait":
			adopt(s, parent)
		}
	}
	for _, s := range stages {
		switch s.Stage {
		case "shard_search":
			adopt(s, fanout)
		case "merge_delta", "merge_frozen", "merge_base":
			adopt(s, merge)
		}
	}
}

// attribute splits one request's wall time among its layers: every
// instant belongs to the deepest span open at that instant, so a span's
// self time is its duration minus the part its children cover, and
// children that run in parallel are counted once. It returns the self
// time per layer and their sum (both microseconds). The sum is taken
// over the spans as recorded, not clipped to the root, so spans placed
// on the wrong clock make it differ from the root's duration.
func attribute(spans []span) (map[string]float64, float64) {
	depth := make([]int, len(spans))
	type edge struct {
		at   float64
		id   int
		open bool
	}
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		edges = append(edges, edge{s.StartUS, i, true}, edge{s.StartUS + s.DurUS, i, false})
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
	self := map[string]float64{}
	var total float64
	var open []int
	for i, e := range edges {
		if i > 0 && len(open) > 0 {
			if d := e.at - edges[i-1].at; d > 0 {
				deepest := open[0]
				for _, id := range open[1:] {
					if depth[id] > depth[deepest] {
						deepest = id
					}
				}
				self[spans[deepest].Layer] += d
				total += d
			}
		}
		if e.open {
			open = append(open, e.id)
			continue
		}
		for j, id := range open {
			if id == e.id {
				open = append(open[:j], open[j+1:]...)
				break
			}
		}
	}
	return self, total
}

// writeSpans dumps every traced request's spans as JSON lines.
func writeSpans(dir, workload string, reqs [][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, req := range reqs {
		for _, s := range req {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return "", fmt.Errorf("write %s: %w", path, err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
