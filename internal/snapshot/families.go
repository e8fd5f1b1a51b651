package snapshot

import (
	"fmt"
	"math"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/ivfpq"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// This file holds the per-family codecs plus the shared vector-list /
// graph codecs they compose; every family's corpus rows are Save's, in
// the blocks section. Each graph family has one reconstruct function
// (decode the pinned navigation sections, then the package's FromStore
// over the given NodeStore) that serves both Load (a resident
// ann.KernelStore over the decoded corpus) and OpenPagedFile (a
// PagedStore over the file's blocks); the flat families hand their
// decoded parts to ann.ExactFromMatrix / ivfpq.FromParts. The
// reconstructors revalidate the family invariants; any violation is
// reported as ErrCorrupt (the checksums held, so the structure itself
// is wrong).

// corrupt wraps a reconstruction error as ErrCorrupt.
func corrupt(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrCorrupt, err)
}

// ---- auxiliary vector lists (centroids, codebooks) ----------------------

// writeVectors encodes a list of same-dimension float32 vectors (always
// F32: centroids are k-means outputs, not quantized corpus rows).
func writeVectors(e *enc, vs []vec.Vector) {
	e.u32(uint32(len(vs)))
	dim := 0
	if len(vs) > 0 {
		dim = len(vs[0])
	}
	e.u32(uint32(dim))
	for _, v := range vs {
		for _, x := range v {
			e.f32(x)
		}
	}
}

func readVectors(d *dec) []vec.Vector {
	count := d.intn(len(d.b), "vector count")
	dim := d.intn(len(d.b), "vector dim")
	if d.err != nil {
		return nil
	}
	out := make([]vec.Vector, count)
	for i := range out {
		v := make(vec.Vector, dim)
		for j := range v {
			v[j] = d.f32()
		}
		if d.err != nil {
			return nil
		}
		out[i] = v
	}
	return out
}

// ---- adjacency graphs ---------------------------------------------------

// writeGraph encodes adjacency as vertex count then per-vertex degree +
// neighbor list, preserving neighbor order exactly (traversal order is
// part of the search's byte-identical contract).
func writeGraph(e *enc, g *graph.Graph) {
	n := g.Len()
	e.u32(uint32(n))
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(uint32(v))
		e.u32(uint32(len(nbrs)))
		for _, w := range nbrs {
			e.u32(w)
		}
	}
}

// readGraph decodes one graph, validating the vertex count against the
// corpus and every neighbor ID against the vertex range.
func readGraph(d *dec, wantN int) (*graph.Graph, error) {
	n := d.intn(len(d.b), "graph vertices")
	if d.err != nil {
		return nil, d.err
	}
	if n != wantN {
		return nil, fmt.Errorf("%w: graph has %d vertices, corpus has %d", ErrCorrupt, n, wantN)
	}
	g := graph.New(n)
	for v := 0; v < n; v++ {
		deg := d.intn(n, "degree")
		if d.err != nil {
			return nil, d.err
		}
		nbrs := make([]uint32, deg)
		for i := range nbrs {
			w := d.u32()
			if d.err == nil && int(w) >= n {
				return nil, fmt.Errorf("%w: vertex %d neighbor %d out of range %d", ErrCorrupt, v, w, n)
			}
			nbrs[i] = w
		}
		if d.err != nil {
			return nil, d.err
		}
		g.SetNeighbors(uint32(v), nbrs)
	}
	return g, nil
}

// ---- exact --------------------------------------------------------------

func saveExact(idx ann.Index, _ *builder) (Header, *vec.Matrix, *graph.Graph, error) {
	x := idx.(*ann.Exact)
	return Header{Metric: x.Metric()}, x.Matrix(), nil, nil
}

func loadExact(h Header, _ *file, mat *vec.Matrix) (ann.Index, error) {
	return ann.ExactFromMatrix(h.Metric, mat), nil
}

// ---- graph families (shared) --------------------------------------------

// errPaged rejects re-saving a paged index: its corpus and adjacency
// live in snapshot blocks it does not own, so the original snapshot file
// already is its serialized form.
var errPaged = fmt.Errorf("%w: paged index cannot be re-saved; copy the snapshot file instead", ErrUnsupported)

// saveGraph finishes a graph family's Saver once its navigation
// sections are queued: it refuses a paged index, adds the scales-only
// "sq8s" section when quantized, and reports the header fields (metric
// and SQ8 mode; the rerank width is stored only beside the SQ8 tier)
// plus the base adjacency Save packs into "blocks".
func saveGraph(b *builder, g *ann.GraphIndex, quantized bool, rerank int) (Header, *vec.Matrix, *graph.Graph, error) {
	mat, base := g.Matrix(), g.BaseGraph()
	if mat == nil || base == nil {
		return Header{}, nil, nil, errPaged
	}
	h := Header{Metric: g.Metric()}
	if quantized {
		if err := addSQ8Scales(b, mat, rerank); err != nil {
			return Header{}, nil, nil, err
		}
		h.Quantized, h.Rerank = true, rerank
	}
	return h, mat, base, nil
}

// ---- hnsw ---------------------------------------------------------------

func saveHNSW(idx ann.Index, b *builder) (Header, *vec.Matrix, *graph.Graph, error) {
	x := idx.(*hnsw.Index)
	cfg := x.Params()
	var p enc
	p.u32(uint32(cfg.M))
	p.u32(uint32(cfg.EfConstruction))
	p.u32(uint32(cfg.EfSearch))
	p.i64(cfg.Seed)
	p.u32(x.EntryPoint())
	p.u32(uint32(x.MaxLevel()))
	b.add("params", p.b)

	var lv enc
	levels := x.Levels()
	lv.u32(uint32(len(levels)))
	for _, l := range levels {
		lv.u32(uint32(l))
	}
	b.add("levels", lv.b)

	// Only the upper layers are pinned (the navigation set); the base
	// layer's adjacency lives in the blocks image.
	upper := x.Layers()[1:]
	var lg enc
	lg.u32(uint32(len(upper)))
	for _, g := range upper {
		writeGraph(&lg, g)
	}
	b.add("layers", lg.b)
	return saveGraph(b, &x.GraphIndex, cfg.Quantized, cfg.Rerank)
}

// reconstructHNSW decodes the pinned hnsw navigation sections — params,
// per-node levels, and the serialized layer list — and assembles the
// index over store.
func reconstructHNSW(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	p, err := f.section("params")
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	cfg := hnsw.Config{
		M:              d.intn(math.MaxInt32, "M"),
		EfConstruction: d.intn(math.MaxInt32, "efConstruction"),
		EfSearch:       d.intn(math.MaxInt32, "efSearch"),
		Metric:         h.Metric,
		Quantized:      h.Quantized,
		Rerank:         h.Rerank,
	}
	cfg.Seed = d.i64()
	entry := d.u32()
	maxLevel := d.intn(math.MaxInt32, "maxLevel")
	if err := d.done(); err != nil {
		return nil, err
	}

	lp, err := f.section("levels")
	if err != nil {
		return nil, err
	}
	d = &dec{b: lp}
	levels := make([]int, d.intn(len(lp), "level count"))
	for i := range levels {
		levels[i] = d.intn(math.MaxInt32, "level")
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	gp, err := f.section("layers")
	if err != nil {
		return nil, err
	}
	d = &dec{b: gp}
	upper := make([]*graph.Graph, d.intn(len(gp), "layer count"))
	for i := range upper {
		upper[i], err = readGraph(d, store.Len())
		if err != nil {
			return nil, err
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	x, err := hnsw.FromStore(cfg, store, upper, levels, entry, maxLevel)
	return x, corrupt(err)
}

// ---- vamana / diskann ---------------------------------------------------

func saveVamana(idx ann.Index, b *builder) (Header, *vec.Matrix, *graph.Graph, error) {
	x := idx.(*vamana.Index)
	cfg := x.Params()
	var p enc
	p.u32(uint32(cfg.R))
	p.u32(uint32(cfg.L))
	p.u32(uint32(cfg.LSearch))
	p.f32(cfg.Alpha)
	p.i64(cfg.Seed)
	p.u32(x.Medoid())
	b.add("params", p.b)
	return saveGraph(b, &x.GraphIndex, cfg.Quantized, cfg.Rerank)
}

func reconstructVamana(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	p, err := f.section("params")
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	cfg := vamana.Config{
		R:         d.intn(math.MaxInt32, "R"),
		L:         d.intn(math.MaxInt32, "L"),
		LSearch:   d.intn(math.MaxInt32, "LSearch"),
		Metric:    h.Metric,
		Quantized: h.Quantized,
		Rerank:    h.Rerank,
	}
	cfg.Alpha = d.f32()
	cfg.Seed = d.i64()
	medoid := d.u32()
	if err := d.done(); err != nil {
		return nil, err
	}
	x, err := vamana.FromStore(cfg, store, medoid)
	return x, corrupt(err)
}

// ---- hcnng --------------------------------------------------------------

func saveHCNNG(idx ann.Index, b *builder) (Header, *vec.Matrix, *graph.Graph, error) {
	x := idx.(*hcnng.Index)
	cfg := x.Params()
	var p enc
	p.u32(uint32(cfg.Clusterings))
	p.u32(uint32(cfg.LeafSize))
	p.u32(uint32(cfg.MaxDegree))
	p.u32(uint32(cfg.LSearch))
	p.i64(cfg.Seed)
	p.u32(x.Entry())
	b.add("params", p.b)
	return saveGraph(b, &x.GraphIndex, cfg.Quantized, cfg.Rerank)
}

func reconstructHCNNG(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	p, err := f.section("params")
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	cfg := hcnng.Config{
		Clusterings: d.intn(math.MaxInt32, "clusterings"),
		LeafSize:    d.intn(math.MaxInt32, "leafSize"),
		MaxDegree:   d.intn(math.MaxInt32, "maxDegree"),
		LSearch:     d.intn(math.MaxInt32, "LSearch"),
		Metric:      h.Metric,
		Quantized:   h.Quantized,
		Rerank:      h.Rerank,
	}
	cfg.Seed = d.i64()
	entry := d.u32()
	if err := d.done(); err != nil {
		return nil, err
	}
	x, err := hcnng.FromStore(cfg, store, entry)
	return x, corrupt(err)
}

// ---- togg ---------------------------------------------------------------

func saveTOGG(idx ann.Index, b *builder) (Header, *vec.Matrix, *graph.Graph, error) {
	x := idx.(*togg.Index)
	cfg := x.Params()
	var p enc
	p.u32(uint32(cfg.K))
	p.u32(uint32(cfg.GuideDims))
	p.u32(uint32(cfg.GuideHops))
	p.u32(uint32(cfg.LSearch))
	p.i64(cfg.Seed)
	p.u32(x.Entry())
	b.add("params", p.b)
	var gd enc
	dims := x.GuideDims()
	gd.u32(uint32(len(dims)))
	for _, dim := range dims {
		gd.u32(uint32(dim))
	}
	b.add("guide", gd.b)
	return saveGraph(b, &x.GraphIndex, cfg.Quantized, cfg.Rerank)
}

// reconstructTOGG decodes the togg params and guide-dimension sections
// and assembles the index over store.
func reconstructTOGG(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	p, err := f.section("params")
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	cfg := togg.Config{
		K:         d.intn(math.MaxInt32, "K"),
		GuideDims: d.intn(math.MaxInt32, "guideDims"),
		GuideHops: d.intn(math.MaxInt32, "guideHops"),
		LSearch:   d.intn(math.MaxInt32, "LSearch"),
		Metric:    h.Metric,
		Quantized: h.Quantized,
		Rerank:    h.Rerank,
	}
	cfg.Seed = d.i64()
	entry := d.u32()
	if err := d.done(); err != nil {
		return nil, err
	}
	gp, err := f.section("guide")
	if err != nil {
		return nil, err
	}
	d = &dec{b: gp}
	dims := make([]int, d.intn(len(gp), "guide dim count"))
	for i := range dims {
		dims[i] = d.intn(math.MaxInt32, "guide dim")
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	x, err := togg.FromStore(cfg, store, entry, dims)
	return x, corrupt(err)
}

// ---- ivfpq --------------------------------------------------------------

func saveIVFPQ(idx ann.Index, b *builder) (Header, *vec.Matrix, *graph.Graph, error) {
	x := idx.(*ivfpq.Index)
	cfg := x.Params()
	var p enc
	p.u32(uint32(cfg.NList))
	p.u32(uint32(cfg.NProbe))
	p.u32(uint32(cfg.Segments))
	p.u32(uint32(cfg.CodeBits))
	p.u32(uint32(cfg.Rerank))
	p.u32(uint32(cfg.KMeansIters))
	p.i64(cfg.Seed)
	b.add("params", p.b)

	var co enc
	writeVectors(&co, x.Coarse())
	b.add("coarse", co.b)

	var cb enc
	books := x.Codebooks()
	cb.u32(uint32(len(books)))
	for _, book := range books {
		writeVectors(&cb, book)
	}
	b.add("codebooks", cb.b)

	var li enc
	lists := x.Lists()
	li.u32(uint32(len(lists)))
	for _, list := range lists {
		li.u32(uint32(len(list)))
		for _, post := range list {
			li.u32(post.ID)
			li.b = append(li.b, post.Code...)
		}
	}
	b.add("lists", li.b)
	return Header{Metric: cfg.Metric}, x.Matrix(), nil, nil
}

func loadIVFPQ(h Header, f *file, mat *vec.Matrix) (ann.Index, error) {
	p, err := f.section("params")
	if err != nil {
		return nil, err
	}
	d := &dec{b: p}
	cfg := ivfpq.Config{
		NList:       d.intn(math.MaxInt32, "nlist"),
		NProbe:      d.intn(math.MaxInt32, "nprobe"),
		Segments:    d.intn(math.MaxInt32, "segments"),
		CodeBits:    d.intn(math.MaxInt32, "code bits"),
		Rerank:      d.intn(math.MaxInt32, "rerank"),
		KMeansIters: d.intn(math.MaxInt32, "kmeans iters"),
		Metric:      h.Metric,
	}
	cfg.Seed = d.i64()
	if err := d.done(); err != nil {
		return nil, err
	}

	cop, err := f.section("coarse")
	if err != nil {
		return nil, err
	}
	d = &dec{b: cop}
	coarse := readVectors(d)
	if err := d.done(); err != nil {
		return nil, err
	}

	cbp, err := f.section("codebooks")
	if err != nil {
		return nil, err
	}
	d = &dec{b: cbp}
	books := make([][]vec.Vector, d.intn(len(cbp), "codebook count"))
	for i := range books {
		books[i] = readVectors(d)
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	lip, err := f.section("lists")
	if err != nil {
		return nil, err
	}
	d = &dec{b: lip}
	lists := make([][]ivfpq.Posting, d.intn(len(lip), "list count"))
	for i := range lists {
		list := make([]ivfpq.Posting, d.intn(len(lip), "posting count"))
		for j := range list {
			id := d.u32()
			if d.err == nil && int(id) >= mat.Rows() {
				return nil, fmt.Errorf("%w: posting id %d out of range %d", ErrCorrupt, id, mat.Rows())
			}
			code := d.bytes(cfg.Segments)
			if d.err != nil {
				return nil, d.err
			}
			list[j] = ivfpq.Posting{ID: id, Code: append([]uint8(nil), code...)}
		}
		lists[i] = list
	}
	if err := d.done(); err != nil {
		return nil, err
	}

	x, err := ivfpq.FromParts(cfg, mat, coarse, books, lists)
	return x, corrupt(err)
}
