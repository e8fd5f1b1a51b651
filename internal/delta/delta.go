// Package delta is the mutable tier of the generational shard set: a
// small brute-force index that absorbs Upsert/Delete traffic under an
// RWMutex while the immutable snapshot-backed base shards keep serving
// reads. A delta layer answers searches by scanning its live vectors on
// the same prepared-query arithmetic ann.BruteForce uses, so its
// distances are bit-identical to the exact baseline and the engine's
// (distance, ID) merge stays a total order across tiers.
//
// A layer tracks two disjoint sets keyed by external vector ID:
//
//   - live: vectors upserted into this layer (authoritative values),
//     stored contiguously — one row-major []float32 buffer with stride
//     dim beside parallel ID and write-number slices, and an ID→row map.
//     An overwrite rewrites its row in place; Delete and Release
//     swap-remove (the last row moves into the hole). Search scores the
//     buffer in batched four-row kernel calls instead of walking a map;
//   - deleted: IDs deleted through this layer that still exist in the
//     base generation (or in the generation a compaction is building)
//     and must be shadowed there.
//
// Shadows(id) — membership in either set — is the tombstone predicate
// the engine's merge fold applies to the base (the engine keeps a
// per-generation bitset over base positions that mirrors it for the
// in-traversal filter): a live entry shadows the stale base copy it
// replaced, a deleted entry shadows the copy it removed. Within one
// engine generation the shadow set over base IDs only grows (Delete
// moves an ID from live to deleted, never erases a shadow a lower tier
// still needs), which is what makes the lock-staggered merge in
// engine.SearchBatch dup-free and lets that bitset never clear a bit.
//
// Every write is numbered. A compaction Captures the layer at a write
// number — copying the captured rows out, since later writes move rows
// in place — builds a new base generation from the capture while the
// layer keeps serving and absorbing writes, and then Releases it: on
// success every entry written at or before the capture leaves the layer
// (the new base holds it), on failure nothing does.
package delta

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"ndsearch/internal/ann"
	"ndsearch/internal/vec"
)

// Index is one mutable delta layer. The zero value is not usable; call
// New. All methods are safe for concurrent use.
type Index struct {
	mu     sync.RWMutex
	metric vec.Metric
	dim    int
	// seq numbers the writes: it is the number of the latest one.
	seq uint64
	// The live set, one dense row per live ID: ids[i] holds the vector
	// rows[i*dim:(i+1)*dim], stored by write number seqs[i], and
	// pos[ids[i]] == i. An overwrite rewrites its row in place; a
	// removal moves the last row into the hole.
	ids  []uint32
	seqs []uint64
	rows []float32
	pos  map[uint32]int32
	// deleted maps each deleted ID to the number of the write that
	// deleted it.
	deleted map[uint32]uint64
	// pinned is the sorted live-ID set of the capture in flight (nil when
	// none): the generation being built holds those IDs, so deleting one
	// must leave a tombstone even when the current base lacks it.
	pinned []uint32
}

// scanChunk is how many live rows Search scores per batched kernel
// call: the distances fit a stack buffer, so a search allocates nothing
// for them.
const scanChunk = 256

// New returns an empty delta layer over metric m for dim-dimensional
// vectors.
func New(m vec.Metric, dim int) *Index {
	return &Index{
		metric:  m,
		dim:     dim,
		pos:     make(map[uint32]int32),
		deleted: make(map[uint32]uint64),
	}
}

// row returns live row i of the contiguous buffer.
func (d *Index) row(i int32) []float32 {
	return d.rows[int(i)*d.dim : (int(i)+1)*d.dim]
}

// removeLocked drops live row i by moving the last row into its place.
func (d *Index) removeLocked(i int32) {
	delete(d.pos, d.ids[i])
	last := int32(len(d.ids) - 1)
	if i != last {
		d.ids[i], d.seqs[i] = d.ids[last], d.seqs[last]
		copy(d.row(i), d.row(last))
		d.pos[d.ids[i]] = i
	}
	d.ids, d.seqs, d.rows = d.ids[:last], d.seqs[:last], d.rows[:int(last)*d.dim]
}

// CheckVector validates a vector for insertion: the layer's exact
// dimensionality and finite components. NaN components poison every
// (distance, ID) comparison and Inf saturates distances, so both are
// rejected at the write path rather than detected in search results.
func (d *Index) CheckVector(v vec.Vector) error {
	if len(v) != d.dim {
		return fmt.Errorf("delta: vector has dim %d, index dim is %d", len(v), d.dim)
	}
	for i, c := range v {
		if f := float64(c); math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("delta: component %d is not finite (%v)", i, c)
		}
	}
	return nil
}

// Upsert inserts or replaces id's vector in the live set (copying v, so
// the caller may reuse the slice) and clears any deleted mark — a
// delete-then-reinsert resurrects the ID with the new value while the
// shadow over the base persists. It reports whether id was already live
// in this layer.
func (d *Index) Upsert(id uint32, v vec.Vector) (wasLive bool, err error) {
	if err := d.CheckVector(v); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seq++
	i, wasLive := d.pos[id]
	if wasLive {
		copy(d.row(i), v)
		d.seqs[i] = d.seq
	} else {
		d.pos[id] = int32(len(d.ids))
		d.ids = append(d.ids, id)
		d.seqs = append(d.seqs, d.seq)
		d.rows = append(d.rows, v...)
	}
	delete(d.deleted, id)
	return wasLive, nil
}

// Delete removes id from the live set. shadow reports whether the base
// generation still holds id (so the deletion must be remembered as a
// tombstone); an ID that only ever lived in this layer is simply
// forgotten — unless the capture in flight holds it, because the
// generation being built from that capture will. It reports whether id
// was live in this layer.
func (d *Index) Delete(id uint32, shadow bool) (wasLive bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, wasLive := d.pos[id]
	if wasLive {
		d.removeLocked(i)
	}
	d.seq++
	if _, captured := slices.BinarySearch(d.pinned, id); shadow || captured {
		d.deleted[id] = d.seq
	}
	return wasLive
}

// Has reports whether id is live in this layer.
func (d *Index) Has(id uint32) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.pos[id]
	return ok
}

// Shadows reports whether id is shadowed by this layer: live here (the
// base copy is stale) or deleted through here (the base copy is dead).
// This is the tombstone predicate merges apply to the base.
func (d *Index) Shadows(id uint32) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.pos[id]; ok {
		return true
	}
	_, ok := d.deleted[id]
	return ok
}

// Len returns the live vector count.
func (d *Index) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ids)
}

// Tombstones returns the deleted-mark count.
func (d *Index) Tombstones() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.deleted)
}

// ShadowCount returns the total shadow-set size (live + deleted): the
// compaction pressure signal, and the engine's test for whether a batch
// must filter its base shard searches through Shadows at all.
func (d *Index) ShadowCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.ids) + len(d.deleted)
}

// Empty reports whether the layer holds no live vectors and no deleted
// marks (nothing to compact, nothing shadowed).
func (d *Index) Empty() bool { return d.ShadowCount() == 0 }

// Search scans the live set and returns the top-k neighbors of query
// under the layer's metric, ascending by the ann (distance, ID) total
// order. The contiguous rows are scored in batched kernel calls
// (vec.PreparedQuery.DistancesToFlat, bit-identical to the DistanceTo
// ann.BruteForce uses), so distances are bit-identical to the exact
// tier for identical vectors. A dimension-mismatched query returns nil
// rather than panicking (engine and server validate dims at admission;
// this is the defensive backstop).
func (d *Index) Search(query vec.Vector, k int) []ann.Neighbor {
	if k < 1 || len(query) != d.dim {
		return nil
	}
	q := vec.PrepareQuery(d.metric, query)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.ids) == 0 {
		return nil
	}
	// Row order follows the write history, but Frontier admission
	// follows the (distance, ID) total order, so the retained top-k is
	// canonical regardless of scan order.
	f := ann.NewFrontier(k)
	var dists [scanChunk]float32
	for lo := 0; lo < len(d.ids); lo += scanChunk {
		out := dists[:min(scanChunk, len(d.ids)-lo)]
		q.DistancesToFlat(d.rows[lo*d.dim:(lo+len(out))*d.dim], out)
		for j, dist := range out {
			f.PushResult(ann.Neighbor{ID: d.ids[lo+j], Dist: dist})
		}
	}
	return f.Results()
}

// Capture pins the layer's current state for a compaction and returns
// it: the live entries sorted ascending by ID with their vectors copied
// into one private buffer (later writes rewrite and move the layer's
// own rows in place, so the capture must not alias them), the sorted
// shadow set the new base must drop, and the number at of the latest
// write the capture includes. The layer keeps every captured entry —
// searches still see it, later writes still replace it — until
// Release(at, ...). One capture may be pinned at a time.
func (d *Index) Capture() (ids []uint32, vecs []vec.Vector, drop []uint32, at uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids = slices.Clone(d.ids)
	slices.Sort(ids)
	buf := make([]float32, len(ids)*d.dim)
	vecs = make([]vec.Vector, len(ids))
	for i, id := range ids {
		vecs[i] = buf[i*d.dim : (i+1)*d.dim : (i+1)*d.dim]
		copy(vecs[i], d.row(d.pos[id]))
	}
	d.pinned = ids
	return ids, vecs, d.shadowIDsLocked(), d.seq
}

// Release ends the capture taken at write number at. built reports
// whether a new base generation now holds the capture: then every entry
// written at or before at leaves the layer, and what stays are the
// writes that landed during the compaction. Otherwise nothing left the
// layer and Release only unpins.
func (d *Index) Release(at uint64, built bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pinned = nil
	if !built {
		return
	}
	for i := int32(0); int(i) < len(d.ids); {
		if d.seqs[i] <= at {
			d.removeLocked(i) // row i now holds the former last row
		} else {
			i++
		}
	}
	for id, seq := range d.deleted {
		if seq <= at {
			delete(d.deleted, id)
		}
	}
}

// ShadowIDs returns every shadowed ID (live and deleted), sorted
// ascending — the set a compaction swap intersects with the new base to
// recompute its tombstone counter.
func (d *Index) ShadowIDs() []uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.shadowIDsLocked()
}

func (d *Index) shadowIDsLocked() []uint32 {
	ids := make([]uint32, 0, len(d.ids)+len(d.deleted))
	ids = append(ids, d.ids...)
	for id := range d.deleted {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
