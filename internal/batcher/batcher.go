// Package batcher is the admission layer between request handlers and
// the sharded engine: an asynchronous micro-batching scheduler that
// coalesces concurrent, independently submitted queries into engine
// batches. The paper's throughput story (conf_isca_WangLZSLCLC24 §VII)
// depends on amortising a device pass over many queries; this package
// recovers that batching for serving paths where each caller carries
// only one query (or a small batch), instead of batching only what a
// single request happens to contain.
//
// Dispatch is run-to-completion: one dispatcher blocks for the first
// submit, takes whatever else is already queued (up to maxBatch
// queries) without waiting, runs that batch, and repeats. An idle
// engine therefore serves a lone submit at once, and under load each
// batch is exactly what arrived while the previous one ran — a submit
// waits at most for the batch already running. Submits sharing a k
// coalesce into one engine batch; distinct k values dispatch as separate
// engine batches within the same flush, because k shapes an approximate
// index's search width — this keeps every caller's results
// byte-identical to a direct engine search at its own k, independent of
// co-tenants.
package batcher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/engine"
	"ndsearch/internal/obs"
	"ndsearch/internal/vec"
)

// maxBatch caps the queries one flush takes off the queue, and sizes the
// submit channel: once it is full, Submit blocks on the send (still
// counted in the queue depth) until the dispatcher drains it.
const maxBatch = 256

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("batcher: closed")

// waiter is one Submit call parked until its batch completes. tr, when
// non-nil, receives the admission-wait span and (rebased) engine-batch
// spans at dispatch.
type waiter struct {
	queries []vec.Vector
	k       int
	enq     time.Time
	tr      *obs.Trace
	res     [][]ann.Neighbor
	info    BatchInfo
	ready   chan struct{}
}

// BatchInfo describes the coalesced engine batch that served one
// Submit call.
type BatchInfo struct {
	// FormedSize is the total query count of the engine batch.
	FormedSize int
	// Submits is the number of Submit calls coalesced into the batch.
	Submits int
	// K is the result budget the engine batch ran with (submits only
	// share a batch when their k matches).
	K int
	// Wait is the time this submit spent queued before dispatch.
	Wait time.Duration
	// Engine echoes the backend's own stats for the formed batch.
	Engine *engine.BatchStats
}

// Stats are cumulative coalescing counters (updated at dispatch) plus
// the instantaneous queue depth.
type Stats struct {
	// Submits and Queries count dispatched Submit calls and the
	// queries they carried.
	Submits, Queries int64
	// Batches counts formed engine batches.
	Batches int64
	// MaxFormedBatch is the largest engine batch formed.
	MaxFormedBatch int
	// WaitTotal and WaitMax aggregate per-submit queueing delay.
	WaitTotal, WaitMax time.Duration
	// QueueDepth is the number of queries pending at snapshot time.
	QueueDepth int
}

// MeanFormedBatch returns the average formed engine-batch size.
func (s Stats) MeanFormedBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Queries) / float64(s.Batches)
}

// MeanWait returns the average per-submit queueing delay.
func (s Stats) MeanWait() time.Duration {
	if s.Submits == 0 {
		return 0
	}
	return time.Duration(int64(s.WaitTotal) / s.Submits)
}

// Batcher coalesces concurrent Submit calls into engine batches. It is
// safe for concurrent use.
type Batcher struct {
	eng    *engine.Engine
	submit chan *waiter
	// done is closed when the dispatcher has drained the closed queue.
	done  chan struct{}
	depth atomic.Int64

	// closeMu serialises Submit sends against Close closing the submit
	// channel; Submit holds the read side only while enqueueing.
	closeMu sync.RWMutex
	closed  bool

	// The obs instruments are the only coalescing counters: Stats is
	// computed from them and EnableMetrics names them on a registry. The
	// atomics carry what a histogram cannot give back exactly — the wait
	// sum and maximum in nanoseconds, and the largest formed batch.
	wait           *obs.Histogram
	formed         *obs.Histogram
	submits        *obs.Counter
	batches        *obs.Counter
	waitTotal      atomic.Int64
	waitMax        atomic.Int64
	maxFormedBatch atomic.Int64
}

// EnableMetrics exposes the coalescing metrics on r: per-submit
// admission wait, formed engine-batch sizes, cumulative submit/batch
// counters, and a scrape-time queue-depth gauge. Call it once per
// registry.
func (b *Batcher) EnableMetrics(r *obs.Registry) {
	r.Register(b.wait, b.formed, b.submits, b.batches,
		obs.NewGaugeFunc("nd_coalesce_queue_depth",
			"queries pending admission",
			func() float64 { return float64(b.depth.Load()) }))
}

// New starts a Batcher over eng. Call Close to stop it; the Batcher
// does not own (and never closes) the engine.
func New(eng *engine.Engine) *Batcher {
	b := &Batcher{
		eng:    eng,
		submit: make(chan *waiter, maxBatch),
		done:   make(chan struct{}),
		wait: obs.NewHistogram("nd_coalesce_wait_seconds",
			"time a submit queued before its coalesced batch dispatched", obs.LatencyBuckets),
		formed: obs.NewHistogram("nd_coalesce_formed_batch_size",
			"queries per formed engine batch", obs.SizeBuckets),
		submits: obs.NewCounter("nd_coalesce_submits_total",
			"dispatched Submit calls"),
		batches: obs.NewCounter("nd_coalesce_batches_total",
			"formed engine batches"),
	}
	go b.dispatch()
	return b
}

// Submit enqueues queries for coalesced execution and blocks until the
// batch they joined completes. Results[i] answers queries[i],
// byte-identical to a direct engine search with the same k. tr, when
// non-nil, receives a coalesce_wait span for the admission delay plus
// the engine batch's own spans (fanout, shard_search, merge), rebased
// onto tr's clock. The engine spans describe the formed batch the
// submit rode in, which it may share with co-tenant submits — span
// query indices are positions within that batch.
func (b *Batcher) Submit(queries []vec.Vector, k int, tr *obs.Trace) ([][]ann.Neighbor, BatchInfo, error) {
	if len(queries) == 0 {
		return nil, BatchInfo{}, errors.New("batcher: empty submit")
	}
	if k < 1 {
		return nil, BatchInfo{}, fmt.Errorf("batcher: k must be >= 1, got %d", k)
	}
	//ndvet:ignore determinism enqueue time feeds only queue-latency stats, never results
	w := &waiter{queries: queries, k: k, enq: time.Now(), tr: tr, ready: make(chan struct{})}
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		return nil, BatchInfo{}, ErrClosed
	}
	b.depth.Add(int64(len(queries)))
	b.submit <- w
	b.closeMu.RUnlock()
	<-w.ready
	return w.res, w.info, nil
}

// Search submits a single query — the coalesced counterpart of
// engine.Engine.Search.
func (b *Batcher) Search(query vec.Vector, k int, tr *obs.Trace) ([]ann.Neighbor, BatchInfo, error) {
	res, info, err := b.Submit([]vec.Vector{query}, k, tr)
	if err != nil {
		return nil, info, err
	}
	return res[0], info, nil
}

// Close stops accepting submits, dispatches whatever is pending, and
// waits for those batches to complete. It is idempotent.
func (b *Batcher) Close() {
	b.closeMu.Lock()
	if !b.closed {
		b.closed = true
		close(b.submit)
	}
	b.closeMu.Unlock()
	<-b.done
}

// Stats returns a snapshot of the cumulative counters, read from the
// same instruments /metrics renders. Formed sizes are whole numbers, so
// the histogram's float sum gives the query count back exactly.
func (b *Batcher) Stats() Stats {
	return Stats{
		Submits:        int64(b.submits.Value()),
		Queries:        int64(b.formed.Sum()),
		Batches:        int64(b.batches.Value()),
		MaxFormedBatch: int(b.maxFormedBatch.Load()),
		WaitTotal:      time.Duration(b.waitTotal.Load()),
		WaitMax:        time.Duration(b.waitMax.Load()),
		QueueDepth:     int(b.depth.Load()),
	}
}

// dispatch is the scheduler loop: block for the first waiter, take
// whatever else is already queued without waiting, run that batch here,
// repeat. After Close the range drains what is still queued, then ends.
func (b *Batcher) dispatch() {
	defer close(b.done)
	for w := range b.submit {
		batch, n := []*waiter{w}, len(w.queries)
	drain:
		for n < maxBatch {
			select {
			case w, ok := <-b.submit:
				if !ok {
					break drain
				}
				batch = append(batch, w)
				n += len(w.queries)
			default:
				break drain
			}
		}
		b.run(batch, n)
	}
}

// run executes one flush: group the waiters by k (k shapes the search,
// so mixing k values would make a caller's results depend on its
// co-tenants), run one engine batch per group, and fan each waiter's
// slice of its group's results back. Everything is counted before any
// waiter is released, so a caller that has returned from Submit is
// always already counted in Stats().
func (b *Batcher) run(batch []*waiter, n int) {
	//ndvet:ignore determinism dispatch time feeds only latency stats, never results
	dispatched := time.Now()
	b.depth.Add(-int64(n))
	groups := make(map[int][]*waiter)
	sizes := make(map[int]int)
	for _, w := range batch {
		groups[w.k] = append(groups[w.k], w)
		sizes[w.k] += len(w.queries)
		wait := dispatched.Sub(w.enq)
		b.wait.Observe(wait.Seconds())
		b.waitTotal.Add(int64(wait))
		obs.StoreMax(&b.waitMax, int64(wait))
	}
	b.submits.Add(uint64(len(batch)))
	b.batches.Add(uint64(len(groups)))
	for _, gn := range sizes {
		b.formed.Observe(float64(gn))
		obs.StoreMax(&b.maxFormedBatch, int64(gn))
	}

	for k, ws := range groups {
		gn := sizes[k]
		queries := make([]vec.Vector, 0, gn)
		traced := false
		for _, w := range ws {
			queries = append(queries, w.queries...)
			traced = traced || w.tr != nil
		}
		// When any submit in the group is traced, run the engine batch
		// under a fresh trace and fan its spans out to every traced
		// waiter afterwards — the engine spans belong to the shared
		// formed batch, so each requester gets the same attribution.
		var etr *obs.Trace
		if traced {
			etr = obs.NewTrace()
		}
		res, est := b.eng.SearchBatchOpts(queries, k, engine.SearchOptions{Trace: etr})
		off := 0
		for _, w := range ws {
			w.res = res[off : off+len(w.queries)]
			off += len(w.queries)
			w.info = BatchInfo{
				FormedSize: gn, Submits: len(ws), K: k,
				Wait: dispatched.Sub(w.enq), Engine: est,
			}
			if w.tr != nil {
				w.tr.ObserveAt("coalesce_wait", -1, -1, w.enq, dispatched.Sub(w.enq))
				w.tr.Extend(etr)
			}
			close(w.ready)
		}
	}
}
