package vec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// StoredBytes returns the at-rest footprint of one vector of dimension
// dim with element kind k. This is what the NAND placement and the page
// occupancy calculations use.
func StoredBytes(k ElemKind, dim int) int { return k.Bytes() * dim }

// Encode serialises v into dst using element kind k, returning the number
// of bytes written. dst must have room for StoredBytes(k, v.Dim()).
// U8/I8 components are clamped to their representable range, mirroring
// how the datasets ship quantised descriptors.
func Encode(k ElemKind, v Vector, dst []byte) (int, error) {
	need := StoredBytes(k, len(v))
	if len(dst) < need {
		return 0, fmt.Errorf("vec: encode needs %d bytes, have %d", need, len(dst))
	}
	switch k {
	case F32:
		for i, x := range v {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(x))
		}
	case U8:
		for i, x := range v {
			dst[i] = uint8(clamp(x, 0, 255))
		}
	case I8:
		for i, x := range v {
			dst[i] = uint8(int8(clamp(x, -128, 127)))
		}
	default:
		return 0, fmt.Errorf("vec: unknown element kind %d", k)
	}
	return need, nil
}

// Decode reads a vector of dimension dim and element kind k from src.
func Decode(k ElemKind, dim int, src []byte) (Vector, error) {
	out := make(Vector, dim)
	if err := DecodeInto(k, src, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto decodes len(out) components of element kind k from src
// into out without allocating. Semantics are identical to Decode; the
// at-rest kernels (stored.go) score the same bytes without decoding and
// are bit-identical to scoring the row this writes.
func DecodeInto(k ElemKind, src []byte, out Vector) error {
	dim := len(out)
	need := StoredBytes(k, dim)
	if len(src) < need {
		return fmt.Errorf("vec: decode needs %d bytes, have %d", need, len(src))
	}
	switch k {
	case F32:
		for i := range out {
			out[i] = f32le(src[4*i:])
		}
	case U8:
		for i := range out {
			out[i] = float32(src[i])
		}
	case I8:
		for i := range out {
			out[i] = float32(int8(src[i]))
		}
	default:
		return fmt.Errorf("vec: unknown element kind %d", k)
	}
	return nil
}

// DecodeAt returns component d of a vector stored with element kind k:
// DecodeInto's value for that one component.
func DecodeAt(k ElemKind, src []byte, d int) float32 {
	switch k {
	case F32:
		return f32le(src[4*d:])
	case U8:
		return u8f32[src[d]]
	case I8:
		return s8f32[src[d]]
	default:
		panic(fmt.Sprintf("vec: unknown element kind %d", k))
	}
}

func f32le(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

func clamp(x, lo, hi float32) float32 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// roundTrip returns x as element kind k stores it: Decode(Encode(x)).
func roundTrip(k ElemKind, x float32) float32 {
	switch k {
	case U8:
		return float32(uint8(clamp(x, 0, 255)))
	case I8:
		return float32(int8(clamp(x, -128, 127)))
	}
	return x
}

// Quantize rounds v to the representable grid of kind k and returns the
// result as a float32 vector. F32 is returned unchanged (cloned). This is
// used by dataset generators so that ground truth is computed on exactly
// the values the simulated NAND stores.
func Quantize(k ElemKind, v Vector) Vector {
	out := v.Clone()
	for i, x := range out {
		out[i] = roundTrip(k, x)
	}
	return out
}

// Unrepresentable returns the index of the first component of v that
// element kind k cannot store exactly — one whose Encode/Decode round
// trip changes its bits — or -1 when k stores all of v exactly. It is
// the one representability check: the snapshot writers refuse such a
// row, and the engine refuses such a write before it can reach one.
func Unrepresentable(k ElemKind, v Vector) int {
	for i, x := range v {
		if math.Float32bits(roundTrip(k, x)) != math.Float32bits(x) {
			return i
		}
	}
	return -1
}
