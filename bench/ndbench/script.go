package main

import (
	"math/rand"
	"time"

	"ndsearch/internal/vec"
)

type opKind uint8

const (
	upsertNew     opKind = iota // a vector under an ID the corpus never held
	overwriteBase               // a new vector under a live base ID
	deleteLive                  // remove a live ID
)

// writeOp is one scripted write. due is when the open-loop generator
// must send it, measured from the start of the window.
type writeOp struct {
	due   time.Duration
	kind  opKind
	id    uint32
	spare int // index of the vector written; unused by deleteLive
}

// writeScript is the seeded write schedule of mutate_mix and the live
// set it leaves behind, which the post-run check searches exactly.
type writeScript struct {
	ops []writeOp
	// finalIDs[i] holds finalVecs[i] once every op has been applied.
	finalIDs  []uint32
	finalVecs []vec.Vector
}

// buildScript draws rate*dur writes: half upsert-new, a quarter
// overwrite-base, a quarter delete-live. Targets are drawn against the
// live set as it stands after the ops before them, so no op is a no-op.
func buildScript(seed int64, corpus, spare []vec.Vector, rate float64, dur time.Duration) *writeScript {
	rng := rand.New(rand.NewSource(seed))
	n := len(corpus)
	live := make([]uint32, n)   // live IDs, order irrelevant
	content := map[uint32]int{} // ID → spare index; absent means corpus[id]
	for i := range live {
		live[i] = uint32(i)
	}
	total := int(rate * dur.Seconds())
	s := &writeScript{ops: make([]writeOp, 0, total)}
	nextNew := uint32(n)
	for i := 0; i < total; i++ {
		op := writeOp{due: time.Duration(float64(i) * float64(time.Second) / rate)}
		switch roll := rng.Intn(4); {
		case roll == 2:
			op.kind = overwriteBase
			op.id = live[rng.Intn(len(live))]
			// Base IDs dominate the live set, so a few draws find one;
			// failing that, the op overwrites a live upserted ID.
			for tries := 0; op.id >= uint32(n) && tries < 64; tries++ {
				op.id = live[rng.Intn(len(live))]
			}
			op.spare = rng.Intn(len(spare))
			content[op.id] = op.spare
		case roll == 3:
			op.kind = deleteLive
			at := rng.Intn(len(live))
			op.id = live[at]
			last := len(live) - 1
			live[at] = live[last]
			live = live[:last]
			delete(content, op.id)
		default:
			op.kind = upsertNew
			op.id = nextNew
			op.spare = int(nextNew-uint32(n)) % len(spare)
			nextNew++
			live = append(live, op.id)
			content[op.id] = op.spare
		}
		s.ops = append(s.ops, op)
	}
	s.finalIDs = live
	s.finalVecs = make([]vec.Vector, len(live))
	for i, id := range live {
		if sp, ok := content[id]; ok {
			s.finalVecs[i] = spare[sp]
		} else {
			s.finalVecs[i] = corpus[id]
		}
	}
	return s
}

// clock is the time source of the open-loop generator, so its due-time
// accounting can be tested against a scripted clock.
type clock interface {
	since() time.Duration // time since the window started
	sleep(d time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) since() time.Duration  { return now().Sub(c.start) }
func (c wallClock) sleep(d time.Duration) { time.Sleep(d) }

// writeResult times one scripted write against its due time.
type writeResult struct {
	kind opKind
	late time.Duration // how long after due the generator sent it
	ack  time.Duration // acknowledgement time minus due time
	call time.Duration // time inside the program's Upsert/Delete
	err  error
}

// runOpenLoop sends every op at its due time whether or not earlier ops
// were slow: it sleeps only while ahead of schedule, and an op that
// starts late is charged from when it was due, so a stall shows up in
// the acks of the writes queued behind it.
func runOpenLoop(ops []writeOp, clk clock, apply func(writeOp) error) []writeResult {
	out := make([]writeResult, len(ops))
	for i, op := range ops {
		at := clk.since()
		if at < op.due {
			clk.sleep(op.due - at)
			at = clk.since()
		}
		err := apply(op)
		done := clk.since()
		out[i] = writeResult{kind: op.kind, late: at - op.due, ack: done - op.due, call: done - at, err: err}
	}
	return out
}
