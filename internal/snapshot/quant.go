package snapshot

import (
	"fmt"
	"math"

	"ndsearch/internal/vec"
)

// The "sq8s" section (graph families) carries only the quantizer
// parameters — rerank width and per-dimension scales — because the int8
// codes themselves live next to each node's adjacency in the
// page-aligned "blocks" section. It is part of the pinned
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

// parseSQ8Scales decodes the "sq8s" section if present. prepareBlocks
// pairs the scales with the codes stored in the blocks image.
func parseSQ8Scales(f *file, h Header) (rerank int, scales []float32, ok bool, err error) {
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
	// The rule vec.SQ8FromParts enforces, checked here so the paged
	// open (which never builds an SQ8) refuses the same files Load does.
	for i, sc := range scales {
		if math.IsNaN(float64(sc)) || math.IsInf(float64(sc), 0) || sc < 0 {
			return 0, nil, false, fmt.Errorf("%w: sq8 scale %d is %v", ErrCorrupt, i, sc)
		}
	}
	return rerank, scales, true, nil
}
