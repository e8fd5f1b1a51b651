package snapshot

import (
	"fmt"
	"math"
	"strconv"

	"ndsearch/internal/ann"
	"ndsearch/internal/graph"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/ivfpq"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// This file holds the per-family codecs plus the shared params /
// vector-list / graph codecs they compose; every family's corpus rows
// (and a graph family's SQ8 codes and base adjacency) are Save's, in
// the blocks section. Each family is one codec: a save function that
// queues its structure sections, and one reconstruct function (decode
// those sections, then the package's constructor over the given
// NodeStore) that serves both Load (a resident ann.KernelStore over the
// decoded corpus) and OpenPagedFile (a PagedStore over the file's
// blocks). The reconstructors revalidate the family invariants; any
// violation is reported as ErrCorrupt (the checksums held, so the
// structure itself is wrong).

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

// ---- params ------------------------------------------------------------

// Each family's "params" section is one list of field pointers in
// on-disk order, stated once and shared by its save and reconstruct
// functions, so the writer and the reader cannot disagree field by
// field. An *int is a u32 range-checked to [0, MaxInt32] on read, an
// *uint32 a raw u32 (an entry vertex, range-checked by the family), an
// *int64 an i64, and a *float32 its IEEE bits.

// writeParams appends the "params" section encoding fields in order.
func writeParams(b *builder, fields ...any) error {
	var e enc
	for i, p := range fields {
		switch p := p.(type) {
		case *int:
			e.u32(uint32(*p))
		case *uint32:
			e.u32(*p)
		case *int64:
			e.i64(*p)
		case *float32:
			e.f32(*p)
		default:
			return fmt.Errorf("%w: params field %d has type %T", ErrUnsupported, i, p)
		}
	}
	b.add("params", e.b)
	return nil
}

// readParams decodes the "params" section into fields, in order, and
// requires the payload to be consumed exactly.
func readParams(f *file, fields ...any) error {
	payload, err := f.section("params")
	if err != nil {
		return err
	}
	d := &dec{b: payload}
	for i, p := range fields {
		switch p := p.(type) {
		case *int:
			*p = d.intn(math.MaxInt32, "params field "+strconv.Itoa(i))
		case *uint32:
			*p = d.u32()
		case *int64:
			*p = d.i64()
		case *float32:
			*p = d.f32()
		default:
			return fmt.Errorf("%w: params field %d has type %T", ErrUnsupported, i, p)
		}
	}
	return d.done()
}

// ---- flat families ------------------------------------------------------

// flatRecords is the flat families' record rule, checked on RAM load
// and paged open alike: their blocks records carry no neighbor slots
// and no SQ8 codes.
func flatRecords(f *file) error {
	if m := f.blocks.meta; m.maxDegree != 0 || m.quantized {
		return fmt.Errorf("%w: %s blocks carry graph records (maxDegree %d, quantized %v)",
			ErrCorrupt, f.header.Algo, m.maxDegree, m.quantized)
	}
	return nil
}

// ---- exact --------------------------------------------------------------

// saveExact queues nothing: an exact index is its corpus rows.
func saveExact(ann.Index, *builder) (Header, error) { return Header{}, nil }

func reconstructExact(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	if err := flatRecords(f); err != nil {
		return nil, err
	}
	return ann.ExactFromStore(h.Metric, store), nil
}

// ---- hnsw ---------------------------------------------------------------

// hnswParams is the hnsw "params" layout.
func hnswParams(cfg *hnsw.Config, entry *uint32, maxLevel *int) []any {
	return []any{&cfg.M, &cfg.EfConstruction, &cfg.EfSearch, &cfg.Seed, entry, maxLevel}
}

func saveHNSW(idx ann.Index, b *builder) (Header, error) {
	x := idx.(*hnsw.Index)
	cfg := x.Params()
	entry, maxLevel := x.EntryPoint(), x.MaxLevel()
	if err := writeParams(b, hnswParams(&cfg, &entry, &maxLevel)...); err != nil {
		return Header{}, err
	}

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
	return Header{Quantized: cfg.Quantized, Rerank: cfg.Rerank}, nil
}

// reconstructHNSW decodes the pinned hnsw navigation sections — params,
// per-node levels, and the serialized layer list — and assembles the
// index over store.
func reconstructHNSW(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	cfg := hnsw.Config{Metric: h.Metric, Quantized: h.Quantized, Rerank: h.Rerank}
	var entry uint32
	var maxLevel int
	if err := readParams(f, hnswParams(&cfg, &entry, &maxLevel)...); err != nil {
		return nil, err
	}

	lp, err := f.section("levels")
	if err != nil {
		return nil, err
	}
	d := &dec{b: lp}
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

// vamanaParams is the diskann "params" layout.
func vamanaParams(cfg *vamana.Config, medoid *uint32) []any {
	return []any{&cfg.R, &cfg.L, &cfg.LSearch, &cfg.Alpha, &cfg.Seed, medoid}
}

func saveVamana(idx ann.Index, b *builder) (Header, error) {
	x := idx.(*vamana.Index)
	cfg := x.Params()
	medoid := x.Medoid()
	err := writeParams(b, vamanaParams(&cfg, &medoid)...)
	return Header{Quantized: cfg.Quantized, Rerank: cfg.Rerank}, err
}

func reconstructVamana(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	cfg := vamana.Config{Metric: h.Metric, Quantized: h.Quantized, Rerank: h.Rerank}
	var medoid uint32
	if err := readParams(f, vamanaParams(&cfg, &medoid)...); err != nil {
		return nil, err
	}
	x, err := vamana.FromStore(cfg, store, medoid)
	return x, corrupt(err)
}

// ---- hcnng --------------------------------------------------------------

// hcnngParams is the hcnng "params" layout.
func hcnngParams(cfg *hcnng.Config, entry *uint32) []any {
	return []any{&cfg.Clusterings, &cfg.LeafSize, &cfg.MaxDegree, &cfg.LSearch, &cfg.Seed, entry}
}

func saveHCNNG(idx ann.Index, b *builder) (Header, error) {
	x := idx.(*hcnng.Index)
	cfg := x.Params()
	entry := x.Entry()
	err := writeParams(b, hcnngParams(&cfg, &entry)...)
	return Header{Quantized: cfg.Quantized, Rerank: cfg.Rerank}, err
}

func reconstructHCNNG(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	cfg := hcnng.Config{Metric: h.Metric, Quantized: h.Quantized, Rerank: h.Rerank}
	var entry uint32
	if err := readParams(f, hcnngParams(&cfg, &entry)...); err != nil {
		return nil, err
	}
	x, err := hcnng.FromStore(cfg, store, entry)
	return x, corrupt(err)
}

// ---- togg ---------------------------------------------------------------

// toggParams is the togg "params" layout.
func toggParams(cfg *togg.Config, entry *uint32) []any {
	return []any{&cfg.K, &cfg.GuideDims, &cfg.GuideHops, &cfg.LSearch, &cfg.Seed, entry}
}

func saveTOGG(idx ann.Index, b *builder) (Header, error) {
	x := idx.(*togg.Index)
	cfg := x.Params()
	entry := x.Entry()
	if err := writeParams(b, toggParams(&cfg, &entry)...); err != nil {
		return Header{}, err
	}
	var gd enc
	dims := x.GuideDims()
	gd.u32(uint32(len(dims)))
	for _, dim := range dims {
		gd.u32(uint32(dim))
	}
	b.add("guide", gd.b)
	return Header{Quantized: cfg.Quantized, Rerank: cfg.Rerank}, nil
}

// reconstructTOGG decodes the togg params and guide-dimension sections
// and assembles the index over store.
func reconstructTOGG(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	cfg := togg.Config{Metric: h.Metric, Quantized: h.Quantized, Rerank: h.Rerank}
	var entry uint32
	if err := readParams(f, toggParams(&cfg, &entry)...); err != nil {
		return nil, err
	}
	gp, err := f.section("guide")
	if err != nil {
		return nil, err
	}
	d := &dec{b: gp}
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

// ivfpqParams is the ivfpq "params" layout.
func ivfpqParams(cfg *ivfpq.Config) []any {
	return []any{&cfg.NList, &cfg.NProbe, &cfg.Segments, &cfg.CodeBits, &cfg.Rerank, &cfg.KMeansIters, &cfg.Seed}
}

func saveIVFPQ(idx ann.Index, b *builder) (Header, error) {
	x := idx.(*ivfpq.Index)
	cfg := x.Params()
	if err := writeParams(b, ivfpqParams(&cfg)...); err != nil {
		return Header{}, err
	}

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
	return Header{}, nil
}

func reconstructIVFPQ(h Header, f *file, store ann.NodeStore) (ann.Index, error) {
	if err := flatRecords(f); err != nil {
		return nil, err
	}
	cfg := ivfpq.Config{Metric: h.Metric}
	if err := readParams(f, ivfpqParams(&cfg)...); err != nil {
		return nil, err
	}

	cop, err := f.section("coarse")
	if err != nil {
		return nil, err
	}
	d := &dec{b: cop}
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
			if d.err == nil && int(id) >= store.Len() {
				return nil, fmt.Errorf("%w: posting id %d out of range %d", ErrCorrupt, id, store.Len())
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

	x, err := ivfpq.FromParts(cfg, store, coarse, books, lists)
	return x, corrupt(err)
}
