package snapshot

import (
	"fmt"
	"math"

	"ndsearch/internal/vec"
)

// The "sq8" section (format version 2) persists the SQ8 compressed
// tier verbatim, so a warm-started quantized index traverses the exact
// codes the saved index did — byte-identical resave included — instead
// of requantizing on load. Payload layout:
//
//	4          rerank width (u32)
//	4          rows (u32, must match header)
//	4          dim (u32, must match header)
//	4*dim      per-dimension scale factors (f32 bit patterns)
//	rows*dim   int8 codes, row-major, one byte each
//
// Presence of the section is what marks a snapshot as quantized; the
// per-family params sections are unchanged from version 1, which is why
// old files keep loading (as full-precision indexes) without any
// per-family migration. This package only reads it (readSQ8): version 3
// moved the codes into the blocks records, and the version-2 writer
// lives on in the tests' legacy-file builder (legacy_test.go).

// The "sq8s" section (format version 3, graph families) carries only
// the quantizer parameters — rerank width and per-dimension scales —
// because the int8 codes themselves live next to each node's adjacency
// in the page-aligned "blocks" section. It is part of the pinned
// navigation set: small, resident in every serving mode. Payload:
//
//	4      rerank width (u32)
//	4      dim (u32, must match header)
//	4*dim  per-dimension scale factors (f32 bit patterns)

// addSQ8Scales appends the "sq8s" section for a quantized graph index.
func addSQ8Scales(b *builder, mat *vec.Matrix, rerank int) error {
	sq := mat.SQ8()
	if sq == nil {
		return fmt.Errorf("%w: quantized index has no SQ8 tier", ErrUnsupported)
	}
	var e enc
	e.u32(uint32(rerank))
	e.u32(uint32(sq.Dim()))
	for _, s := range sq.Scales() {
		e.f32(s)
	}
	b.add("sq8s", e.b)
	return nil
}

// readSQ8Scales decodes the "sq8s" section if present. prepareBlocks
// pairs the scales with the codes stored in the blocks image.
func readSQ8Scales(f *file, h Header) (rerank int, scales []float32, ok bool, err error) {
	payload, present := f.sections["sq8s"]
	if !present {
		return 0, nil, false, nil
	}
	d := &dec{b: payload}
	rerank = d.intn(math.MaxInt32, "rerank width")
	dim := d.intn(math.MaxInt32, "sq8s dim")
	if d.err != nil {
		return 0, nil, false, d.err
	}
	if dim != h.Dim {
		return 0, nil, false, fmt.Errorf("%w: sq8s section has dim %d, header says %d", ErrCorrupt, dim, h.Dim)
	}
	scales = make([]float32, dim)
	for i := range scales {
		scales[i] = d.f32()
	}
	if err := d.done(); err != nil {
		return 0, nil, false, err
	}
	return rerank, scales, true, nil
}

// readSQ8 decodes the "sq8" section if present, attaches the tier to
// mat, and reports the saved rerank width. A missing section is not an
// error — it simply means a full-precision snapshot (including every
// version-1 file).
func readSQ8(f *file, mat *vec.Matrix) (rerank int, quantized bool, err error) {
	payload, ok := f.sections["sq8"]
	if !ok {
		return 0, false, nil
	}
	d := &dec{b: payload}
	rerank = d.intn(math.MaxInt32, "rerank width")
	rows := d.intn(math.MaxInt32, "sq8 rows")
	dim := d.intn(math.MaxInt32, "sq8 dim")
	if d.err != nil {
		return 0, false, d.err
	}
	if rows != mat.Rows() || dim != mat.Dim() {
		return 0, false, fmt.Errorf("%w: sq8 section is %dx%d, corpus is %dx%d",
			ErrCorrupt, rows, dim, mat.Rows(), mat.Dim())
	}
	scales := make([]float32, dim)
	for i := range scales {
		scales[i] = d.f32()
	}
	raw := d.bytes(rows * dim)
	if d.err != nil {
		return 0, false, d.err
	}
	codes := make([]int8, len(raw))
	for i, b := range raw {
		codes[i] = int8(b)
	}
	if err := d.done(); err != nil {
		return 0, false, err
	}
	sq, err := vec.SQ8FromParts(dim, rows, scales, codes)
	if err != nil {
		return 0, false, corrupt(err)
	}
	if err := mat.AttachSQ8(sq); err != nil {
		return 0, false, corrupt(err)
	}
	return rerank, true, nil
}
