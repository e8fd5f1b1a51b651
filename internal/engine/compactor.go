package engine

import (
	"sync"
)

// Compactor runs threshold-triggered background compaction: every
// accepted Upsert/Delete pokes it, and once the delta's shadow-set size
// reaches the threshold it calls Engine.Compact. The trigger is purely
// notification-driven — no timers, no wall clock — so a quiet engine
// costs nothing and test runs stay deterministic. Entries a compaction
// in flight captured keep counting toward the threshold until its swap,
// so a write landing during a manual Compact can trigger the loop; its
// call then meets ErrCompacting, which the loop ignores.
//
// Create with NewCompactor, stop with Close (before closing the
// engine). Compaction errors do not stop the loop; the most recent one
// is retained for LastErr and cleared by the next successful drain.
type Compactor struct {
	e         *Engine
	threshold int
	notify    chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	lastErr error
	runs    int64
}

// DefaultCompactThreshold is the delta shadow-set size at which
// NewCompactor triggers a drain when the caller passes threshold <= 0.
const DefaultCompactThreshold = 1024

// NewCompactor starts a background compaction loop over e, triggering
// whenever the delta's shadow-set size (live upserts + tombstones)
// reaches threshold (<= 0 selects DefaultCompactThreshold). Call Close
// to stop the loop before closing the engine.
func NewCompactor(e *Engine, threshold int) *Compactor {
	if threshold <= 0 {
		threshold = DefaultCompactThreshold
	}
	c := &Compactor{
		e:         e,
		threshold: threshold,
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	e.setNotify(c.notify)
	go c.run()
	return c
}

// Threshold returns the trigger threshold.
func (c *Compactor) Threshold() int { return c.threshold }

func (c *Compactor) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case <-c.notify:
		}
		if c.e.DeltaPressure() < c.threshold {
			continue
		}
		err := c.e.Compact()
		c.mu.Lock()
		if err != ErrCompacting {
			// A manual Compact winning the single-flight race is not a
			// compactor failure; anything else (including nil) is the
			// loop's latest outcome.
			c.lastErr = err
			if err == nil {
				c.runs++
			}
		}
		c.mu.Unlock()
	}
}

// LastErr returns the most recent background compaction error (nil
// after a successful drain or before the first trigger).
func (c *Compactor) LastErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Runs returns the number of successful background drains.
func (c *Compactor) Runs() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// Close stops the loop and waits for it to exit, detaching the wakeup
// channel from the engine. Idempotent. A drain in progress completes
// first — close the Compactor before the Engine.
func (c *Compactor) Close() {
	c.closeOnce.Do(func() {
		c.e.setNotify(nil)
		close(c.stop)
		<-c.done
	})
}
