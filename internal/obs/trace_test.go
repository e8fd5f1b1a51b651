package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	tr.Span("fanout").End()
	tr.Span("shard_search").Shard(2).Query(1).Pages(10, 3).End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var ss *Span
	for i := range spans {
		if spans[i].Stage == "shard_search" {
			ss = &spans[i]
		}
	}
	if ss == nil {
		t.Fatal("shard_search span missing")
	}
	if ss.Shard != 2 || ss.Query != 1 || ss.Touches != 10 || ss.Faults != 3 {
		t.Fatalf("span scope wrong: %+v", *ss)
	}
	for _, s := range spans {
		if s.StartUS < 0 || s.DurUS < 0 {
			t.Fatalf("negative offsets: %+v", s)
		}
	}
}

func TestTraceNilNoOps(t *testing.T) {
	var tr *Trace
	sp := tr.Span("x")
	if sp != nil {
		t.Fatal("nil trace must return nil span")
	}
	sp.Shard(1).Query(2).Pages(3, 4).End()
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace Spans() = %v, want nil", got)
	}
}

func TestSpansDeterministicOrder(t *testing.T) {
	// Same StartUS, differing scope: order must be (Stage, Shard, Query).
	tr := &Trace{spans: []Span{
		{Stage: "shard_search", Shard: 1, Query: 0},
		{Stage: "shard_search", Shard: 0, Query: 1},
		{Stage: "fanout", Shard: -1, Query: -1},
		{Stage: "shard_search", Shard: 0, Query: 0},
	}}
	spans := tr.Spans()
	want := []Span{
		{Stage: "fanout", Shard: -1, Query: -1},
		{Stage: "shard_search", Shard: 0, Query: 0},
		{Stage: "shard_search", Shard: 0, Query: 1},
		{Stage: "shard_search", Shard: 1, Query: 0},
	}
	for i, w := range want {
		if spans[i].Stage != w.Stage || spans[i].Shard != w.Shard || spans[i].Query != w.Query {
			t.Fatalf("order[%d] = %+v, want %+v", i, spans[i], w)
		}
	}
}

func TestTraceConcurrentAppend(t *testing.T) {
	tr := NewTrace()
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Span("shard_search").Shard(w).Query(i).End()
			}
		}(w)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != workers*per {
		t.Fatalf("got %d spans, want %d", got, workers*per)
	}
}

func TestSpanJSONOmitsZeroPages(t *testing.T) {
	b, err := json.Marshal(Span{Stage: "merge", Shard: -1, Query: 0})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "touches") || strings.Contains(string(b), "faults") {
		t.Fatalf("zero page counters must be omitted: %s", b)
	}
	b, err = json.Marshal(Span{Stage: "shard_search", Touches: 1, Faults: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"touches":1`) || !strings.Contains(string(b), `"faults":2`) {
		t.Fatalf("nonzero page counters must render: %s", b)
	}
}
