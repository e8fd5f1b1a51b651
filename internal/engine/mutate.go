// Live mutability: Upsert/Delete absorb writes into the delta tier, and
// Compact drains the delta into a freshly built base generation. See the
// concurrency contract on Engine and DESIGN.md §12.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
)

// ErrCompacting means a compaction is already in flight; Compact is
// single-flight by design.
var ErrCompacting = errors.New("engine: compaction already in flight")

// ErrUnrepresentable means a written vector has a component the
// engine's at-rest element kind (Meta.Elem) cannot store exactly. The
// write is refused up front: accepted, it would make every later Save
// or persisted compaction fail until the ID was overwritten.
var ErrUnrepresentable = errors.New("engine: vector not representable at rest")

// CheckElem reports, as an ErrUnrepresentable, the first component of v
// the engine's at-rest element kind cannot store exactly — the check
// the snapshot writers apply to every row. Upsert runs it; a caller
// applying a batch runs it first to keep the batch all-or-nothing.
func (e *Engine) CheckElem(v vec.Vector) error {
	if j := vec.Unrepresentable(e.meta.Elem, v); j >= 0 {
		return fmt.Errorf("%w: component %d (%v) is not representable as %v", ErrUnrepresentable, j, v[j], e.meta.Elem)
	}
	return nil
}

// Upsert inserts or replaces the vector with external ID id. The value
// lands in the mutable delta tier immediately (v is copied) and becomes
// visible to the next SearchBatch; any older copy in the base
// generation is shadowed from that point on. The vector must have the
// engine's dimensionality and finite components, each exactly
// representable in the at-rest element kind (ErrUnrepresentable).
func (e *Engine) Upsert(id uint32, v vec.Vector) error {
	if err := e.CheckElem(v); err != nil {
		return fmt.Errorf("engine: upsert %d: %w", id, err)
	}
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	wasLive := e.isLiveLocked(id)
	shadowedBefore := e.delta.Shadows(id)
	if _, err := e.delta.Upsert(id, v); err != nil {
		return fmt.Errorf("engine: upsert %d: %w", id, err)
	}
	if !wasLive {
		e.liveLen.Add(1)
	}
	if pos, inBase := e.gen.position(id); inBase && !shadowedBefore {
		e.gen.setShadowed(pos)
		e.baseTombs.Add(1)
	}
	e.m.upserts.Inc()
	e.notifyCompactor()
	return nil
}

// Delete removes the vector with external ID id and reports whether it
// was live. A copy in the base generation is tombstoned (shadowed by
// the delta tier) rather than erased; the storage is reclaimed by the
// next Compact. Deleting an absent ID is a no-op that reports false and
// leaves no tombstone behind.
func (e *Engine) Delete(id uint32) (bool, error) {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	if !e.isLiveLocked(id) {
		return false, nil
	}
	// The deletion must be remembered as a tombstone only when the base
	// still holds the ID; an ID that only ever lived in the delta is
	// simply forgotten (the delta itself keeps one for an ID a compaction
	// in flight captured).
	pos, inBase := e.gen.position(id)
	if inBase && !e.delta.Shadows(id) {
		e.gen.setShadowed(pos)
		e.baseTombs.Add(1)
	}
	e.delta.Delete(id, inBase)
	e.liveLen.Add(-1)
	e.m.deletes.Inc()
	e.notifyCompactor()
	return true, nil
}

// isLiveLocked reports whether external ID id is live in the layered
// corpus. Callers hold writeMu, which also keeps e.gen from being
// swapped.
func (e *Engine) isLiveLocked(id uint32) bool {
	if e.delta.Has(id) {
		return true
	}
	// Shadowed but not live in the delta is a deleted mark.
	return !e.delta.Shadows(id) && e.gen.has(id)
}

// MutStats is a snapshot of the mutation and compaction counters (the
// /stats mutability block).
type MutStats struct {
	// Upserts counts accepted Upsert calls; Deletes counts Delete calls
	// that removed a live vector.
	Upserts, Deletes int64
	// Compactions counts completed generation swaps; Generation is the
	// current base generation number.
	Compactions int64
	Generation  int
	// DeltaLive and DeltaTombstones are the delta tier's live-vector and
	// deleted-mark counts, including entries a compaction in flight has
	// captured (they leave the delta at its swap).
	DeltaLive       int
	DeltaTombstones int
	// BaseTombstones counts base-generation entries currently shadowed by
	// the delta tier — the vectors a Compact would reclaim.
	BaseTombstones int64
	// Compacting reports an in-flight compaction.
	Compacting bool
	// LastCompactDuration and LastCompactVectors describe the most recent
	// completed compaction: wall-clock drain time and the merged corpus
	// size it rebuilt.
	LastCompactDuration time.Duration
	LastCompactVectors  int
}

// MutStats returns a snapshot of the mutation counters.
func (e *Engine) MutStats() MutStats {
	// Compactions is read before LastCompact*, which compact stores
	// first: a snapshot showing compaction n describes n or later.
	st := MutStats{
		Upserts:     int64(e.m.upserts.Value()),
		Deletes:     int64(e.m.deletes.Value()),
		Compactions: int64(e.m.compactions.Value()),

		LastCompactDuration: time.Duration(e.lastCompactDur.Load()),
		LastCompactVectors:  int(e.lastCompactVectors.Load()),
	}
	e.genMu.RLock()
	st.Generation = e.gen.num
	e.genMu.RUnlock()
	st.DeltaLive = e.delta.Len()
	st.DeltaTombstones = e.delta.Tombstones()
	st.BaseTombstones = e.baseTombs.Load()
	st.Compacting = e.compacting.Load()
	return st
}

// setNotify registers the compactor's wakeup channel; Upsert/Delete
// poke it (non-blocking) after every accepted mutation.
func (e *Engine) setNotify(c chan<- struct{}) {
	e.writeMu.Lock()
	e.notifyC = c
	e.writeMu.Unlock()
}

// notifyCompactor pokes the compactor; callers hold writeMu.
func (e *Engine) notifyCompactor() {
	if e.notifyC == nil {
		return
	}
	select {
	case e.notifyC <- struct{}{}:
	default:
	}
}

// DeltaPressure returns the delta tier's shadow-set size — the
// threshold signal compaction policies watch. Entries a compaction in
// flight has captured count until its swap, so the pressure does not
// drop while the drain runs; a policy that triggers on it then meets
// ErrCompacting.
func (e *Engine) DeltaPressure() int { return e.delta.ShadowCount() }

// Compact drains the delta tier into a freshly built base generation:
//
//  1. Capture: under writeMu alone, the delta pins its current state —
//     live entries, shadow set, and the number of the latest write.
//     Nothing moves: searches and mutations keep running against base +
//     delta, and the delta keeps every captured entry until the swap.
//  2. Merge + build (no locks held): the merged corpus — base entries
//     not in the captured shadow set, plus the captured live vectors,
//     sorted by external ID — is re-partitioned and rebuilt with the
//     engine's shard builder. On a snapshot-backed engine the new
//     generation is persisted as a gen-NNNNNN directory and the CURRENT
//     pointer atomically renamed onto it before the swap, so a crash
//     leaves a consistent directory.
//  3. Swap: under the write locks (which wait for in-flight searches to
//     drain), the new generation replaces the old, the delta releases
//     every entry the capture covered (the new base holds them), and
//     the base-tombstone counter and the new generation's shadow bits
//     are recomputed from what the delta still shadows in the new base.
//     The old generation is then retired (paged handles closed,
//     directory deleted).
//
// Compact is single-flight (ErrCompacting when one is in flight) and
// returns nil without work when the delta is empty. It requires a
// RAM-resident base (paged engines cannot read their corpus back); on
// build failure the delta only unpins — nothing left it, so no update
// is lost.
func (e *Engine) Compact() error {
	if !e.compacting.CompareAndSwap(false, true) {
		return ErrCompacting
	}
	defer e.compacting.Store(false)
	return e.compact()
}

func (e *Engine) compact() error {
	//ndvet:ignore determinism wall time feeds only the LastCompactDuration stat, never results
	start := time.Now()
	if e.serveMode != ServeRAM {
		return fmt.Errorf("engine: Compact: paged engine (%s) cannot read its corpus back; load with ServeRAM to compact", e.serveMode)
	}

	// Capture the delta. writeMu excludes writers, and only the swap
	// below (which also holds writeMu) replaces e.gen.
	e.writeMu.Lock()
	if e.delta.Empty() {
		e.writeMu.Unlock()
		return nil
	}
	oldGen := e.gen
	ids, vecs, drop, at := e.delta.Capture()
	e.writeMu.Unlock()

	newGen, err := e.buildGeneration(oldGen, ids, vecs, drop)
	if err == nil && e.genDir != "" {
		err = persistGeneration(e.genDir, newGen, e.meta)
	}
	if err != nil {
		e.delta.Release(at, false)
		return err
	}

	// Swap. The write lock on genMu waits for in-flight searches to
	// drain, so nothing can still be traversing oldGen afterwards.
	e.writeMu.Lock()
	e.genMu.Lock()
	e.gen = newGen
	e.delta.Release(at, true)
	tombs := int64(0)
	for _, id := range e.delta.ShadowIDs() {
		if pos, inBase := newGen.position(id); inBase {
			newGen.setShadowed(pos)
			tombs++
		}
	}
	e.baseTombs.Store(tombs)
	e.genMu.Unlock()
	e.writeMu.Unlock()

	// The new generation is live: count the compaction now, so a failed
	// retirement below cannot leave the counters behind Generation.
	dur := time.Since(start)
	e.lastCompactDur.Store(int64(dur))
	e.lastCompactVectors.Store(int64(newGen.vectors))
	e.m.compactSeconds.Observe(dur.Seconds())
	e.m.compactions.Inc()

	// Retire the old generation.
	closePaged(oldGen.shards)
	if e.genDir != "" {
		if err := snapshot.RetireGeneration(e.genDir, snapshot.GenerationName(oldGen.num)); err != nil {
			return fmt.Errorf("engine: Compact: new generation live, old not retired: %w", err)
		}
	}
	return nil
}

// buildGeneration merges the base generation with a delta capture —
// base rows whose IDs are not in drop, plus the captured live (ids,
// vecs) — and builds the successor generation's shards. No engine locks
// are held: oldGen is immutable and the capture is a private snapshot.
func (e *Engine) buildGeneration(oldGen *generation, capIDs []uint32, capVecs []vec.Vector, drop []uint32) (*generation, error) {
	ids := make([]uint32, 0, oldGen.vectors+len(capIDs))
	vecs := make([]vec.Vector, 0, oldGen.vectors+len(capIDs))
	for _, sh := range oldGen.shards {
		store, ok := sh.index.Store().(*ann.KernelStore)
		if !ok {
			return nil, fmt.Errorf("engine: Compact: shard index %T is not resident", sh.index)
		}
		mat := store.Matrix()
		for r := 0; r < mat.Rows(); r++ {
			ext := oldGen.extID(sh.base + uint32(r))
			if _, shadowed := slices.BinarySearch(drop, ext); shadowed {
				continue
			}
			ids = append(ids, ext)
			vecs = append(vecs, mat.Row(r))
		}
	}
	ids = append(ids, capIDs...)
	vecs = append(vecs, capVecs...)
	if len(ids) == 0 {
		return nil, fmt.Errorf("engine: Compact: refusing to build an empty generation (every vector deleted); the delta keeps serving")
	}

	// Sort the merged corpus ascending by external ID. Both halves are
	// already sorted (base positions ascend through an ascending ID
	// table; Capture returns sorted IDs), so this is one merge pass for
	// sort.Sort's purposes — and the invariant generations rely on:
	// gen.ids strictly ascending, so membership is a binary search.
	sort.Sort(&byExtID{ids: ids, vecs: vecs})

	shards, err := buildShards(vecs, e.reqShards, e.workers, e.builder)
	if err != nil {
		return nil, fmt.Errorf("engine: Compact: %w", err)
	}
	idTab := ids
	identity := true
	for i, id := range ids {
		if id != uint32(i) {
			identity = false
			break
		}
	}
	if identity {
		idTab = nil
	}
	return newGeneration(oldGen.num+1, shards, idTab, len(ids)), nil
}

// byExtID co-sorts the merged (ids, vecs) pair ascending by ID.
type byExtID struct {
	ids  []uint32
	vecs []vec.Vector
}

func (s *byExtID) Len() int           { return len(s.ids) }
func (s *byExtID) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *byExtID) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.vecs[i], s.vecs[j] = s.vecs[j], s.vecs[i]
}
