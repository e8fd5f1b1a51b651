package snapshot

import (
	"bytes"
	"fmt"
	"testing"

	"ndsearch/internal/ann"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// saveLegacy serialises idx with the version-1/2 section shapes — the
// "matrix" section, full layer lists, flat "graph" sections, and the
// codes-carrying "sq8" section — exactly as those writers produced
// them. The compat tests use it to manufacture genuine old files now
// that the current writer emits the version-3 blocks layout for graph
// families. Version 1 predates the sq8 section, so quantized indexes
// are rejected there.
func saveLegacy(tb testing.TB, idx ann.Index, version int) []byte {
	tb.Helper()
	algo, err := Detect(idx)
	if err != nil {
		tb.Fatalf("detect: %v", err)
	}
	b := &builder{}
	b.add("algo", []byte(algo))
	var metric vec.Metric
	var mat *vec.Matrix
	quantized, rerank := false, 0
	switch x := idx.(type) {
	case *hnsw.Index:
		cfg := x.Params()
		metric, mat = cfg.Metric, x.Matrix()
		quantized, rerank = cfg.Quantized, cfg.Rerank
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
		var lg enc
		layers := x.Layers()
		lg.u32(uint32(len(layers)))
		for _, g := range layers {
			writeGraph(&lg, g)
		}
		b.add("layers", lg.b)
	case *vamana.Index:
		cfg := x.Params()
		metric, mat = cfg.Metric, x.Matrix()
		quantized, rerank = cfg.Quantized, cfg.Rerank
		var p enc
		p.u32(uint32(cfg.R))
		p.u32(uint32(cfg.L))
		p.u32(uint32(cfg.LSearch))
		p.f32(cfg.Alpha)
		p.i64(cfg.Seed)
		p.u32(x.Medoid())
		b.add("params", p.b)
		var g enc
		writeGraph(&g, x.BaseGraph())
		b.add("graph", g.b)
	case *hcnng.Index:
		cfg := x.Params()
		metric, mat = cfg.Metric, x.Matrix()
		quantized, rerank = cfg.Quantized, cfg.Rerank
		var p enc
		p.u32(uint32(cfg.Clusterings))
		p.u32(uint32(cfg.LeafSize))
		p.u32(uint32(cfg.MaxDegree))
		p.u32(uint32(cfg.LSearch))
		p.i64(cfg.Seed)
		p.u32(x.Entry())
		b.add("params", p.b)
		var g enc
		writeGraph(&g, x.BaseGraph())
		b.add("graph", g.b)
	case *togg.Index:
		cfg := x.Params()
		metric, mat = cfg.Metric, x.Matrix()
		quantized, rerank = cfg.Quantized, cfg.Rerank
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
		var g enc
		writeGraph(&g, x.BaseGraph())
		b.add("graph", g.b)
	default:
		// exact / ivfpq kept their section shapes across every version.
		metric, mat, _, err = families[algo].save(idx, b)
		if err != nil {
			tb.Fatalf("save %s: %v", algo, err)
		}
	}
	if quantized {
		if version < 2 {
			tb.Fatalf("version-1 files cannot carry a quantized index")
		}
		if err := addSQ8(b, mat, rerank); err != nil {
			tb.Fatalf("add sq8: %v", err)
		}
	}
	payload, err := encodeMatrix(mat, vec.F32)
	if err != nil {
		tb.Fatalf("encode matrix: %v", err)
	}
	b.sections = append([]section{b.sections[0], {name: "matrix", payload: payload}}, b.sections[1:]...)
	h := Header{Version: version, Metric: metric, Elem: vec.F32, Dim: mat.Dim(), Rows: mat.Rows()}
	return b.assemble(h)
}

// addSQ8 appends the version-2 "sq8" section (quant.go) for a quantized
// index's matrix: scales and the whole int8 code buffer.
func addSQ8(b *builder, mat *vec.Matrix, rerank int) error {
	sq := mat.SQ8()
	if sq == nil {
		return fmt.Errorf("%w: quantized index has no SQ8 tier", ErrUnsupported)
	}
	var e enc
	e.u32(uint32(rerank))
	e.u32(uint32(sq.Rows()))
	e.u32(uint32(sq.Dim()))
	for _, s := range sq.Scales() {
		e.f32(s)
	}
	codes := sq.Codes()
	buf := make([]byte, len(codes))
	for i, c := range codes {
		buf[i] = byte(c)
	}
	e.b = append(e.b, buf...)
	b.add("sq8", e.b)
	return nil
}

// TestLegacyCompatMatrix is the version compatibility matrix: files in
// every shipped format version load and serve searches identically to
// the freshly built index. v1 is always full precision; v2 is exercised
// both full-precision and quantized for the graph families; v3 is the
// current writer (covered here for completeness alongside the legacy
// encodings).
func TestLegacyCompatMatrix(t *testing.T) {
	data := testData(90, 8, 17)
	q := testQueries(3, 8, 18)
	check := func(t *testing.T, label string, loaded, built ann.Index) {
		t.Helper()
		for _, qu := range q {
			for _, k := range []int{1, 7, 23} {
				requireSameResults(t, label, loaded.Search(qu, k), built.Search(qu, k))
			}
		}
	}
	for _, algo := range Algos() {
		m := metricsOf(algo)[0]
		t.Run(algo, func(t *testing.T) {
			built := buildFamily(t, algo, m, data)
			for _, version := range []int{1, 2} {
				img := saveLegacy(t, built, version)
				loaded, err := Load(bytes.NewReader(img))
				if err != nil {
					t.Fatalf("load v%d: %v", version, err)
				}
				check(t, algo, loaded, built)
			}
			var cur bytes.Buffer
			if err := Save(&cur, built, vec.F32); err != nil {
				t.Fatalf("save v3: %v", err)
			}
			loaded, err := Load(bytes.NewReader(cur.Bytes()))
			if err != nil {
				t.Fatalf("load v3: %v", err)
			}
			check(t, algo, loaded, built)
		})
	}
	// Quantized legacy files only exist at version 2.
	for _, algo := range quantAlgos {
		t.Run(algo+"/quantized-v2", func(t *testing.T) {
			built := buildQuantFamily(t, algo, vec.L2, data, 12)
			img := saveLegacy(t, built, 2)
			loaded, err := Load(bytes.NewReader(img))
			if err != nil {
				t.Fatalf("load quantized v2: %v", err)
			}
			if quantized, rerank, _ := quantParams(t, loaded); !quantized || rerank != 12 {
				t.Fatalf("loaded params quantized=%v rerank=%d, want true/12", quantized, rerank)
			}
			check(t, algo, loaded, built)
		})
	}
}
