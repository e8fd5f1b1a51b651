package main

import (
	"reflect"
	"testing"
	"time"

	"ndsearch/internal/vec"
)

func scriptInputs(n, spare int) (corpus, spares []vec.Vector) {
	for i := 0; i < n+spare; i++ {
		v := vec.Vector{float32(i), float32(i % 7)}
		if i < n {
			corpus = append(corpus, v)
		} else {
			spares = append(spares, v)
		}
	}
	return corpus, spares
}

func TestScriptIsDeterministicPerSeed(t *testing.T) {
	corpus, spares := scriptInputs(200, 300)
	a := buildScript(5, corpus, spares, 100, 3*time.Second)
	b := buildScript(5, corpus, spares, 100, 3*time.Second)
	c := buildScript(6, corpus, spares, 100, 3*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave two different scripts")
	}
	if reflect.DeepEqual(a.ops, c.ops) {
		t.Error("different seeds gave the same script")
	}
	if len(a.ops) != 300 {
		t.Errorf("script has %d ops, want rate x duration = 300", len(a.ops))
	}
}

func TestScriptFinalLiveSetIsWhatReplayLeaves(t *testing.T) {
	corpus, spares := scriptInputs(200, 300)
	s := buildScript(9, corpus, spares, 100, 3*time.Second)
	live := map[uint32]vec.Vector{}
	for i, v := range corpus {
		live[uint32(i)] = v
	}
	kinds := map[opKind]int{}
	for i, op := range s.ops {
		kinds[op.kind]++
		if want := time.Duration(i) * 10 * time.Millisecond; op.due != want {
			t.Fatalf("op %d due at %v, want %v", i, op.due, want)
		}
		_, isLive := live[op.id]
		switch op.kind {
		case upsertNew:
			if isLive || op.id < 200 {
				t.Fatalf("op %d: upsert-new reuses ID %d", i, op.id)
			}
			live[op.id] = spares[op.spare]
		case overwriteBase:
			if !isLive {
				t.Fatalf("op %d: overwrite of ID %d, which is not live", i, op.id)
			}
			live[op.id] = spares[op.spare]
		case deleteLive:
			if !isLive {
				t.Fatalf("op %d: delete of ID %d, which is not live", i, op.id)
			}
			delete(live, op.id)
		}
	}
	if len(s.finalIDs) != len(live) {
		t.Fatalf("final live set has %d IDs, replay leaves %d", len(s.finalIDs), len(live))
	}
	for i, id := range s.finalIDs {
		if !reflect.DeepEqual(live[id], s.finalVecs[i]) {
			t.Errorf("ID %d: final vector %v, replay leaves %v", id, s.finalVecs[i], live[id])
		}
	}
	// Half upsert-new, a quarter each of the others, within sampling noise.
	if kinds[upsertNew] < 120 || kinds[upsertNew] > 180 || kinds[overwriteBase] < 45 || kinds[deleteLive] < 45 {
		t.Errorf("op mix %v is far from 50/25/25", kinds)
	}
}

// scriptedClock advances only when told to: by sleep, and by the time
// each applied op is scripted to take.
type scriptedClock struct {
	at     time.Duration
	sleeps []time.Duration
}

func (c *scriptedClock) since() time.Duration  { return c.at }
func (c *scriptedClock) sleep(d time.Duration) { c.at += d; c.sleeps = append(c.sleeps, d) }

func TestOpenLoopChargesWritesFromTheirDueTime(t *testing.T) {
	const msec = time.Millisecond
	ops := []writeOp{{due: 0}, {due: 10 * msec}, {due: 20 * msec}, {due: 100 * msec}}
	cost := []time.Duration{25 * msec, 2 * msec, 2 * msec, 1 * msec} // op 0 stalls
	clk := &scriptedClock{}
	i := 0
	res := runOpenLoop(ops, clk, func(writeOp) error {
		clk.at += cost[i]
		i++
		return nil
	})
	want := []writeResult{
		{late: 0, ack: 25 * msec, call: 25 * msec},
		{late: 15 * msec, ack: 17 * msec, call: 2 * msec}, // due at 10, sent at 25
		{late: 7 * msec, ack: 9 * msec, call: 2 * msec},   // due at 20, sent at 27
		{late: 0, ack: 1 * msec, call: 1 * msec},          // the generator caught up and slept
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("results\n got %+v\nwant %+v", res, want)
	}
	// It never sleeps while behind, and sleeps exactly up to the next due time.
	if !reflect.DeepEqual(clk.sleeps, []time.Duration{71 * msec}) {
		t.Errorf("sleeps %v, want one of 71ms (from 29ms to the op due at 100ms)", clk.sleeps)
	}
}
