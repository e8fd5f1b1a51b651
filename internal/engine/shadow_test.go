package engine

import (
	"math"
	"math/bits"
	"runtime"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

// checkShadowBits asserts the in-traversal filter's invariant on the
// current generation: the bitset has one bit per base position, bit pos
// is set exactly when the delta shadows extID(pos), and the popcount
// equals the base-tombstone counter.
func checkShadowBits(t *testing.T, e *Engine, stage string) {
	t.Helper()
	// writeMu holds gen and the delta's shadow set still.
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	gen := e.gen
	if want := (gen.vectors + 63) / 64; len(gen.shadow) != want {
		t.Fatalf("%s: bitset has %d words for %d base vectors, want %d", stage, len(gen.shadow), gen.vectors, want)
	}
	for pos := uint32(0); int(pos) < gen.vectors; pos++ {
		id := gen.extID(pos)
		if got, want := gen.shadowed(pos), e.delta.Shadows(id); got != want {
			t.Fatalf("%s: bit %d (ID %d) = %v, delta.Shadows = %v", stage, pos, id, got, want)
		}
	}
	pop := 0
	for i := range gen.shadow {
		pop += bits.OnesCount64(gen.shadow[i].Load())
	}
	if tombs := e.baseTombs.Load(); int64(pop) != tombs {
		t.Fatalf("%s: popcount %d, baseTombs %d", stage, pop, tombs)
	}
}

// The shadow bitset mirrors delta.Shadows over the base positions after
// every step of an upsert / overwrite / delete / reinsert / compact /
// failed-compact sequence — with writes landing inside the compaction
// windows too — first on generation 0 (identity positions), then on a
// compacted generation that carries an ID table.
func TestShadowBitsetTracksDelta(t *testing.T) {
	pool, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 64, Queries: 1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	const n0 = 24
	spare := pool.Vectors[n0:]
	next := 0
	vecOf := func() vec.Vector { next++; return spare[next%len(spare)] }

	inner := exhaustiveBuilder(t, "exact", vec.L2, 1)
	gate := newBuildGate(false)
	e, err := New(pool.Vectors[:n0], Config{
		Shards: 3, Workers: 2,
		Builder: func(shard int, data []vec.Vector) (ann.Index, error) { return gate.wrap(inner)(shard, data) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)

	upsert := func(id uint32) {
		t.Helper()
		if err := e.Upsert(id, vecOf()); err != nil {
			t.Fatal(err)
		}
	}
	del := func(id uint32) {
		t.Helper()
		if _, err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// gated compacts with the writes run inside the capture→swap window.
	compact := func(fail bool, window func()) {
		t.Helper()
		gate = newBuildGate(fail)
		finish := gate.startCompact(e)
		window()
		checkShadowBits(t, e, "inside the compaction window")
		if err := finish(); (err != nil) != fail {
			t.Fatalf("compaction (fail=%v) returned %v", fail, err)
		}
	}

	checkShadowBits(t, e, "fresh")
	steps := []struct {
		name string
		do   func()
	}{
		{"upsert new", func() { upsert(100) }},
		{"overwrite base", func() { upsert(3) }},
		{"delete base", func() { del(5) }},
		{"delete overwritten base", func() { del(3) }},
		{"reinsert deleted base", func() { upsert(5) }},
		{"delete delta-only", func() { del(100) }},
		{"failed compact", func() { compact(true, func() { upsert(7); del(8) }) }},
		{"compact", func() { compact(false, func() { upsert(10); del(11); upsert(200) }) }},
	}
	for _, s := range steps {
		s.do()
		checkShadowBits(t, e, "generation 0: "+s.name)
	}
	if e.gen.ids == nil {
		t.Fatal("compacted generation has identity positions; the test needs an ID table")
	}

	steps = []struct {
		name string
		do   func()
	}{
		{"overwrite base", func() { upsert(12) }},
		{"delete base", func() { del(13) }},
		{"reinsert deleted base", func() { upsert(13) }},
		{"delete base written in the window", func() { del(10) }},
		{"upsert new", func() { upsert(300) }},
		{"delete delta-only", func() { del(300) }},
		{"failed compact", func() { compact(true, func() { upsert(0); del(23) }) }},
		{"compact", func() { compact(false, func() { upsert(1) }) }},
		{"delete after compact", func() { del(200) }},
	}
	for _, s := range steps {
		s.do()
		checkShadowBits(t, e, "compacted generation: "+s.name)
	}
}

// A write to the largest external ID sizes nothing by that ID: the
// shadow bitset is per generation (one bit per base vector), so an
// Upsert of math.MaxUint32 allocates a delta row, not 512 MiB of bits,
// and a compaction that takes the ID in grows the bitset by one bit.
func TestUpsertMaxIDAllocatesNothingProportional(t *testing.T) {
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: 16, Queries: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(d.Vectors, Config{Shards: 2, Workers: 1, Builder: exhaustiveBuilder(t, "exact", vec.L2, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	const huge = math.MaxUint32
	v := d.Vectors[3]

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := e.Upsert(huge, v); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("Upsert(MaxUint32) allocated %d bytes", got)
	}
	checkShadowBits(t, e, "after upsert")
	if got := e.Search(v, 2); len(got) != 2 || got[0].Dist != 0 || got[1].Dist != 0 {
		t.Fatalf("both copies of row 3 should be at distance 0: %v", got)
	}

	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if e.gen.vectors != 17 || len(e.gen.shadow) != 1 {
		t.Fatalf("compacted generation: %d vectors, %d bitset words", e.gen.vectors, len(e.gen.shadow))
	}
	if ok, err := e.Delete(huge); err != nil || !ok {
		t.Fatalf("Delete(MaxUint32) = %v, %v", ok, err)
	}
	checkShadowBits(t, e, "after deleting the compacted max ID")
	if !e.gen.shadowed(16) {
		t.Fatal("the max ID's base position is not shadowed")
	}
	if got := e.Search(v, 2); got[0] != (ann.Neighbor{ID: 3, Dist: 0}) || got[1].ID == huge {
		t.Fatalf("deleted max ID still served: %v", got)
	}
}
