package obs

import (
	"sort"
	"sync"
	"time"
)

// Span is one recorded stage of a query's execution. Offsets and
// durations are microseconds relative to the owning trace's start, so
// the wire form needs no absolute timestamps.
//
// Stage names used by the serving stack (DESIGN.md §13): fanout (engine
// dispatch: run enqueue through the last shard completion),
// shard_search (one (query, shard) search; Shard and Query set, page
// counters populated on the paged serving path), merge (top-k fold over
// all queries of the batch), and — on a mutated engine — the per-query
// tier folds merge_delta and merge_base.
type Span struct {
	Stage string `json:"stage"`
	// Shard and Query scope the span: the shard ordinal for per-shard
	// stages, the query's position within the executed engine batch for
	// per-query stages. -1 means not applicable.
	Shard int `json:"shard"`
	Query int `json:"query"`
	// StartUS is the offset from the trace's start; DurUS the span's
	// wall-clock duration (both microseconds).
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Touches and Faults are the software page-cache counters consumed by
	// the span on the beyond-RAM paged serving path (0 = resident
	// serving, omitted on the wire). Under concurrent traffic they are
	// windowed reads of shared per-shard counters, so co-tenant queries
	// can inflate them; treat them as attribution, not accounting.
	Touches uint64 `json:"touches,omitempty"`
	Faults  uint64 `json:"faults,omitempty"`
}

// Trace records the stage spans of one query or batch execution. It is
// safe for concurrent use (shard spans land from worker goroutines) and
// every method is a no-op on a nil receiver, so traced and untraced
// executions share one code path. Tracing is observation only: the
// search results of a traced execution are byte-identical to an
// untraced one.
type Trace struct {
	start time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTrace starts a trace; span offsets are relative to this moment.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// Span begins recording a stage and returns the handle that finishes
// it: chain the optional scope setters, then call End. On a nil trace
// it returns nil (and nil handles no-op), without touching the clock.
func (t *Trace) Span(stage string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, start: time.Now(), span: Span{Stage: stage, Shard: -1, Query: -1}}
}

// ActiveSpan is an in-flight span started by Trace.Span. It is not safe
// for concurrent use; each goroutine records its own spans.
type ActiveSpan struct {
	t     *Trace
	start time.Time
	span  Span
}

// Shard scopes the span to a shard ordinal.
func (a *ActiveSpan) Shard(i int) *ActiveSpan {
	if a != nil {
		a.span.Shard = i
	}
	return a
}

// Query scopes the span to a query position within the executed batch.
func (a *ActiveSpan) Query(i int) *ActiveSpan {
	if a != nil {
		a.span.Query = i
	}
	return a
}

// Pages attaches the software page-cache counters consumed by the span.
func (a *ActiveSpan) Pages(touches, faults uint64) *ActiveSpan {
	if a != nil {
		a.span.Touches = touches
		a.span.Faults = faults
	}
	return a
}

// End stamps the duration and records the span on the trace.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.span.StartUS = us(a.start.Sub(a.t.start))
	a.span.DurUS = us(time.Since(a.start))
	a.t.append(a.span)
}

func (t *Trace) append(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns the recorded spans ordered by (StartUS, Stage, Shard,
// Query) — a deterministic order for any fixed set of spans, even
// though concurrent workers appended them in arrival order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.StartUS != b.StartUS {
			return a.StartUS < b.StartUS
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Query < b.Query
	})
	return out
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
