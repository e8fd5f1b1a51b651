package delta

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/vec"
)

func testVectors(t *testing.T, n int) []vec.Vector {
	t.Helper()
	d, err := dataset.Generate(dataset.Sift1B(), dataset.GenConfig{N: n, Queries: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return d.Vectors
}

func TestUpsertDeleteMembership(t *testing.T) {
	vs := testVectors(t, 4)
	d := New(vec.L2, len(vs[0]))
	if !d.Empty() {
		t.Fatal("fresh layer not empty")
	}
	if was, err := d.Upsert(7, vs[0]); err != nil || was {
		t.Fatalf("first upsert: was=%v err=%v", was, err)
	}
	if was, err := d.Upsert(7, vs[1]); err != nil || !was {
		t.Fatalf("second upsert: was=%v err=%v", was, err)
	}
	if d.Len() != 1 || !d.Has(7) || !d.Shadows(7) {
		t.Fatalf("live state wrong: len=%d has=%v shadows=%v", d.Len(), d.Has(7), d.Shadows(7))
	}
	if got := d.Search(vs[1], 1); len(got) != 1 || got[0] != (ann.Neighbor{ID: 7, Dist: 0}) {
		t.Fatalf("Search did not find the latest value: %v", got)
	}

	// Delete with shadow: live entry goes, tombstone stays.
	if !d.Delete(7, true) {
		t.Fatal("delete of live id reported not-live")
	}
	if d.Has(7) || !d.Shadows(7) || d.Tombstones() != 1 {
		t.Fatalf("tombstone state wrong: has=%v shadows=%v tombs=%d", d.Has(7), d.Shadows(7), d.Tombstones())
	}

	// Reinsert resurrects the ID: live again, deleted mark cleared.
	if _, err := d.Upsert(7, vs[2]); err != nil {
		t.Fatal(err)
	}
	if !d.Has(7) || d.Tombstones() != 0 {
		t.Fatalf("resurrection state wrong: has=%v tombs=%d", d.Has(7), d.Tombstones())
	}

	// Delete without shadow: the ID is simply forgotten.
	if !d.Delete(7, false) {
		t.Fatal("delete reported not-live")
	}
	if d.Shadows(7) || !d.Empty() {
		t.Fatalf("forgotten id still shadowed: shadows=%v empty=%v", d.Shadows(7), d.Empty())
	}
	if d.Delete(7, false) {
		t.Fatal("delete of absent id reported live")
	}
}

func TestCheckVectorRejectsBadInput(t *testing.T) {
	d := New(vec.L2, 4)
	cases := map[string]vec.Vector{
		"short":  {1, 2, 3},
		"long":   {1, 2, 3, 4, 5},
		"nan":    {1, 2, float32(math.NaN()), 4},
		"posinf": {1, 2, float32(math.Inf(1)), 4},
		"neginf": {float32(math.Inf(-1)), 2, 3, 4},
	}
	for name, v := range cases {
		if _, err := d.Upsert(1, v); err == nil {
			t.Errorf("%s vector accepted", name)
		}
	}
	if !d.Empty() {
		t.Fatal("rejected upserts left state behind")
	}
}

func TestUpsertCopiesVector(t *testing.T) {
	d := New(vec.L2, 2)
	v := vec.Vector{1, 2}
	if _, err := d.Upsert(1, v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	if got := d.Search(vec.Vector{1, 2}, 1); len(got) != 1 || got[0].Dist != 0 {
		t.Fatalf("Upsert aliased the caller's slice: %v", got)
	}
}

// Search must match ann.BruteForce over the same live set bit-for-bit:
// the delta tier sits in the same (distance, ID) total order as every
// other tier.
func TestSearchMatchesBruteForce(t *testing.T) {
	vs := testVectors(t, 64)
	queries := testVectors(t, 8)
	for _, m := range []vec.Metric{vec.L2, vec.Angular, vec.InnerProduct} {
		d := New(m, len(vs[0]))
		for i, v := range vs {
			if _, err := d.Upsert(uint32(i), v); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			got := d.Search(q, 10)
			want := ann.BruteForce(m, vs, q, 10)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("metric %v: delta search diverges from brute force", m)
			}
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	d := New(vec.L2, 4)
	if got := d.Search(vec.Vector{1, 2, 3, 4}, 5); got != nil {
		t.Fatal("empty layer returned results")
	}
	if _, err := d.Upsert(1, vec.Vector{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if got := d.Search(vec.Vector{1, 2}, 5); got != nil {
		t.Fatal("dim-mismatched query returned results")
	}
	if got := d.Search(vec.Vector{1, 2, 3, 4}, 0); got != nil {
		t.Fatal("k=0 returned results")
	}
}

func TestLiveAndShadowIDsSorted(t *testing.T) {
	d := New(vec.L2, 1)
	for _, id := range []uint32{9, 3, 27, 1} {
		if _, err := d.Upsert(id, vec.Vector{float32(id)}); err != nil {
			t.Fatal(err)
		}
	}
	d.Delete(3, true)
	ids, vecs, drop, at := d.Capture()
	if !reflect.DeepEqual(ids, []uint32{1, 9, 27}) {
		t.Fatalf("Capture ids = %v", ids)
	}
	for i, id := range ids {
		if vecs[i][0] != float32(id) {
			t.Fatalf("Capture vecs misaligned at %d", i)
		}
	}
	if !reflect.DeepEqual(drop, []uint32{1, 3, 9, 27}) {
		t.Fatalf("Capture shadow set = %v", drop)
	}
	if at != 5 {
		t.Fatalf("Capture at = %d after 5 writes", at)
	}
	if got := d.ShadowIDs(); !reflect.DeepEqual(got, drop) {
		t.Fatalf("ShadowIDs = %v", got)
	}
	if d.ShadowCount() != 4 {
		t.Fatalf("ShadowCount = %d", d.ShadowCount())
	}
	d.Release(at, false)
}

// A capture stays in the layer until its release: writes after it
// replace captured entries as usual, a delete of a captured ID leaves a
// tombstone (the generation being built holds it), and a successful
// release drops exactly the entries written at or before the capture.
func TestCaptureRelease(t *testing.T) {
	up := func(d *Index, id uint32, x float32) {
		t.Helper()
		if _, err := d.Upsert(id, vec.Vector{x}); err != nil {
			t.Fatal(err)
		}
	}
	for _, built := range []bool{true, false} {
		d := New(vec.L2, 1)
		up(d, 1, 1)       // captured, then overwritten and deleted
		up(d, 2, 2)       // captured, then deleted
		up(d, 3, 3)       // captured, untouched
		d.Delete(4, true) // captured tombstone, then re-inserted
		d.Delete(5, true) // captured tombstone, untouched
		_, _, _, at := d.Capture()

		up(d, 1, 10)
		d.Delete(1, false)
		d.Delete(2, false)
		up(d, 4, 40)
		up(d, 6, 60)
		d.Delete(6, false) // new and never captured: forgotten
		if d.Has(6) || d.Shadows(6) {
			t.Fatal("uncaptured delete-only id left a tombstone")
		}
		if !d.Has(3) || !d.Shadows(5) || d.Has(1) || !d.Shadows(1) || !d.Shadows(2) {
			t.Fatal("captured state left the layer before release")
		}

		d.Release(at, built)
		wantShadows := []uint32{1, 2, 3, 4, 5}
		if built {
			wantShadows = []uint32{1, 2, 4}
		}
		if got := d.ShadowIDs(); !reflect.DeepEqual(got, wantShadows) {
			t.Fatalf("built=%v: shadows after release = %v, want %v", built, got, wantShadows)
		}
		if got := d.Search(vec.Vector{40}, 1); !d.Has(4) || len(got) != 1 || got[0] != (ann.Neighbor{ID: 4, Dist: 0}) {
			t.Fatalf("built=%v: post-capture upsert of 4 lost: %v", built, got)
		}
		// Released: deleting an uncaptured, base-less id forgets it again.
		up(d, 7, 7)
		d.Delete(7, false)
		if d.Shadows(7) {
			t.Fatalf("built=%v: delete after release still pinned", built)
		}
	}
}

// Capture copies the captured rows: an overwrite (in place), a delete
// (its swap-remove moves the last row into the hole) and an upsert (an
// append that may grow the buffer) after the capture leave every
// captured vector as it was.
func TestCaptureIsolatedFromLaterWrites(t *testing.T) {
	d := New(vec.L2, 2)
	for id := uint32(1); id <= 4; id++ {
		if _, err := d.Upsert(id, vec.Vector{float32(id), -float32(id)}); err != nil {
			t.Fatal(err)
		}
	}
	ids, vecs, _, at := d.Capture()
	want := make([]vec.Vector, len(vecs))
	for i, v := range vecs {
		want[i] = slices.Clone(v)
	}

	if _, err := d.Upsert(1, vec.Vector{100, 100}); err != nil {
		t.Fatal(err)
	}
	d.Delete(2, false) // row 4 moves into row 2's slot
	if _, err := d.Upsert(3, vec.Vector{300, 300}); err != nil {
		t.Fatal(err)
	}
	for id := uint32(5); id <= 12; id++ {
		if _, err := d.Upsert(id, vec.Vector{float32(id) * 1000, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ids, []uint32{1, 2, 3, 4}) || !reflect.DeepEqual(vecs, want) {
		t.Fatalf("capture changed under later writes: ids %v vecs %v, want %v", ids, vecs, want)
	}
	// The layer itself serves the new values, including the moved row.
	if got := d.Search(vec.Vector{4, -4}, 1); len(got) != 1 || got[0] != (ann.Neighbor{ID: 4, Dist: 0}) {
		t.Fatalf("moved row lost: %v", got)
	}
	if got := d.Search(vec.Vector{100, 100}, 1); len(got) != 1 || got[0] != (ann.Neighbor{ID: 1, Dist: 0}) {
		t.Fatalf("in-place overwrite lost: %v", got)
	}
	// 2's delete landed after the capture that pinned it: its tombstone
	// outlives the release.
	d.Release(at, true)
	if got := d.ShadowIDs(); !reflect.DeepEqual(got, []uint32{1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12}) {
		t.Fatalf("shadows after release = %v", got)
	}
}

// BenchmarkDeltaSearch is one delta scan at mutate_mix's compaction
// threshold: 1024 live 128-d rows under L2, k = 10.
func BenchmarkDeltaSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const rows, dim = 1024, 128
	d := New(vec.L2, dim)
	for id := uint32(0); id < rows; id++ {
		v := make(vec.Vector, dim)
		for i := range v {
			v[i] = float32(rng.Intn(256))
		}
		if _, err := d.Upsert(id*7, v); err != nil {
			b.Fatal(err)
		}
	}
	q := make(vec.Vector, dim)
	for i := range q {
		q[i] = float32(rng.Intn(256))
	}
	b.ReportAllocs()
	for b.Loop() {
		if len(d.Search(q, 10)) != 10 {
			b.Fatal("short result")
		}
	}
}
