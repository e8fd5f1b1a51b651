package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"ndsearch/internal/vec"
)

// The container layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "NDSS"
//	4       2     format version (currently 4)
//	6       1     metric (vec.Metric encoding)
//	7       1     element kind (vec.ElemKind)
//	8       4     dim
//	12      4     rows
//	16      4     reserved (zero)
//	20      4     CRC32-IEEE of bytes 0..19
//
// followed by a sequence of named sections, each framed as
//
//	1       name length L (> 0)
//	L       name
//	8       payload length P
//	4       CRC32-IEEE of name ++ payload
//	P       payload
//
// and terminated by a single zero byte where the next name length would
// be. Section order is not significant; names are unique per file.
//
// Version history:
//
//	1  initial container: a "matrix" corpus section plus per-family
//	   structure sections, graph adjacency included.
//	2  adds an "sq8" section carrying the whole SQ8 code buffer.
//	3  page-served layout for the graph families (blocks.go): the
//	   corpus rows, the base-layer adjacency, and the SQ8 codes move
//	   into a page-aligned "blocks" section co-locating each node's
//	   adjacency and vector in fixed-size records, so a paged NodeStore
//	   can serve searches without materializing the file. The sections
//	   that remain ("params", hnsw's "levels" and upper "layers",
//	   togg's "guide", the scales-only "sq8s") are the pinned
//	   navigation set — small, resident in every serving mode.
//	   exact/ivfpq keep the flat "matrix" section.
//	4  one corpus encoding: exact and ivfpq write their rows as blocks
//	   records too, with no neighbor slots (maxDegree 0), and the
//	   "matrix" section is gone.
//
// This build reads exactly version 4. Nothing writes versions 1 to 3
// any more, and a snapshot is a build cache that a rebuild reproduces,
// so keeping their decoders would only give one format two readers.

const (
	// FormatVersion is the container format version this package writes
	// and the only one it reads: Load and OpenPagedFile reject any other
	// version with ErrVersion.
	FormatVersion = 4

	headerSize = 24
)

var magic = [4]byte{'N', 'D', 'S', 'S'}

// Header is the one description of a snapshot file: what it holds and
// how it serves. Save returns the header it wrote, and Load and
// PagedIndex.Header the header they parsed, so a caller recording or
// checking a file's contents (the engine manifest) never works them out
// again from the index.
type Header struct {
	// Algo is the family name recorded in the "algo" section (a registry
	// key, see families; a section, not a fixed-header field on disk).
	Algo string
	// Metric is the index's distance metric.
	Metric vec.Metric
	// Elem is the at-rest element kind of the serialized corpus matrix.
	Elem vec.ElemKind
	// Dim and Rows describe the corpus matrix.
	Dim, Rows int
	// Quantized and Rerank are the saved SQ8 mode, which the family
	// loaders rebuild with: Quantized is set when the file carries the
	// SQ8 tier (blocks records with codes beside an "sq8s" section; it
	// is not a header byte on disk), and Rerank is the exact-rerank width
	// stored beside that tier (0 unless Quantized).
	Quantized bool
	Rerank    int
}

// section is one named, CRC-guarded payload.
type section struct {
	name    string
	payload []byte
}

// builder accumulates sections and assembles the final file image.
type builder struct {
	sections []section
}

func (b *builder) add(name string, payload []byte) {
	b.sections = append(b.sections, section{name: name, payload: payload})
}

// encodedSize returns the byte offset at which the next section frame
// will begin in the assembled file (header plus every frame added so
// far, excluding the terminator). The blocks writer uses it to compute
// the absolute, page-aligned offset of the node-record image.
func (b *builder) encodedSize() int {
	size := headerSize
	for _, s := range b.sections {
		size += 1 + len(s.name) + 8 + 4 + len(s.payload)
	}
	return size
}

// assemble serialises the header plus all sections into one file image.
func (b *builder) assemble(h Header) []byte {
	size := headerSize + 1 // header + terminator
	for _, s := range b.sections {
		size += 1 + len(s.name) + 8 + 4 + len(s.payload)
	}
	out := make([]byte, 0, size)
	hdr := make([]byte, headerSize)
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], FormatVersion)
	hdr[6] = uint8(h.Metric)
	hdr[7] = uint8(h.Elem)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(h.Dim))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(h.Rows))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(hdr[:20]))
	out = append(out, hdr...)
	for _, s := range b.sections {
		out = append(out, uint8(len(s.name)))
		out = append(out, s.name...)
		out = binary.LittleEndian.AppendUint64(out, uint64(len(s.payload)))
		out = binary.LittleEndian.AppendUint32(out, sectionCRC(s.name, s.payload))
		out = append(out, s.payload...)
	}
	out = append(out, 0) // terminator
	return out
}

// file is a walked snapshot, the one parse both entry points share: the
// validated header, every other section's CRC-checked payload by name,
// and — when the file has one — where the blocks section sits with its
// self-checksummed meta and frame geometry already validated. The
// blocks payload is deliberately not in sections: Load reads and
// checksums it (decodeBlocks), OpenPagedFile never materializes it.
type file struct {
	header   Header
	sections map[string][]byte
	blocks   *blocksSection
}

// source is the byte source the walker reads a snapshot from. parse
// only asks for ranges it has checked lie inside the file.
type source interface {
	at(off int64, n int) ([]byte, error)
}

// image is an in-memory snapshot (Load): at returns subslices, so
// walking it copies nothing.
type image []byte

func (m image) at(off int64, n int) ([]byte, error) { return m[off : off+int64(n)], nil }

// fileSource is an open snapshot file (OpenPagedFile), read with
// positioned reads into fresh buffers. A short read — the file shrank
// after it was sized — is ErrTruncated, as a short image would be.
type fileSource struct{ fh *os.File }

func (s fileSource) at(off int64, n int) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := s.fh.ReadAt(buf, off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("%w: %d bytes at offset %d", ErrTruncated, n, off)
		}
		return nil, fmt.Errorf("snapshot: read %d bytes at offset %d: %w", n, off, err)
	}
	return buf, nil
}

// parseHeader validates the fixed header: magic, version, header CRC,
// metric and element encodings. data is the file's first headerSize
// bytes, or the whole file when it is shorter.
func parseHeader(data []byte) (Header, error) {
	var h Header
	if len(data) < len(magic) {
		return h, fmt.Errorf("%w: %d bytes, need at least the %d-byte magic", ErrTruncated, len(data), len(magic))
	}
	if [4]byte(data[0:4]) != magic {
		return h, fmt.Errorf("%w: got % x, want % x (%q)", ErrBadMagic, data[0:4], magic[:], magic[:])
	}
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: %d bytes, need %d-byte header", ErrTruncated, len(data), headerSize)
	}
	if version := binary.LittleEndian.Uint16(data[4:6]); version != FormatVersion {
		return h, fmt.Errorf("%w: file is version %d, this build reads only version %d", ErrVersion, version, FormatVersion)
	}
	if got, want := binary.LittleEndian.Uint32(data[20:24]), crc32.ChecksumIEEE(data[:20]); got != want {
		return h, fmt.Errorf("%w: header CRC %08x, computed %08x", ErrChecksum, got, want)
	}
	metric, err := vec.MetricFromEncoding(data[6])
	if err != nil {
		return h, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	elem := vec.ElemKind(data[7])
	if elem > vec.I8 {
		return h, fmt.Errorf("%w: unknown element kind %d", ErrCorrupt, elem)
	}
	return Header{
		Metric: metric,
		Elem:   elem,
		Dim:    int(binary.LittleEndian.Uint32(data[8:12])),
		Rows:   int(binary.LittleEndian.Uint32(data[12:16])),
	}, nil
}

// parse is the one walker over the container, size bytes read from src:
// magic, version and header CRC, then every section frame and every
// section CRC — except the blocks section's, whose payload is the node
// image. For it the walker reads only the meta (self-checksummed) and
// checks the frame geometry; Load checksums the payload when it decodes
// the records, OpenPagedFile never reads it whole. Errors discriminate
// the failure mode so callers (and operators) can tell a stale format
// from disk corruption.
func parse(src source, size int64) (*file, error) {
	hdr, err := src.at(0, int(min(size, headerSize)))
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	f := &file{header: h, sections: map[string][]byte{}}
	off := int64(headerSize)
	for {
		if off >= size {
			return nil, fmt.Errorf("%w: missing section terminator", ErrTruncated)
		}
		nb, err := src.at(off, 1)
		if err != nil {
			return nil, err
		}
		nameLen := int64(nb[0])
		off++
		if nameLen == 0 { // terminator
			if off != size {
				return nil, fmt.Errorf("%w: %d trailing bytes after terminator", ErrCorrupt, size-off)
			}
			return f, nil
		}
		if off+nameLen+8+4 > size {
			return nil, fmt.Errorf("%w: section frame at offset %d", ErrTruncated, off-1)
		}
		frame, err := src.at(off, int(nameLen+8+4))
		if err != nil {
			return nil, err
		}
		name := string(frame[:nameLen])
		payloadLen := binary.LittleEndian.Uint64(frame[nameLen:])
		wantCRC := binary.LittleEndian.Uint32(frame[nameLen+8:])
		off += nameLen + 8 + 4
		if payloadLen > uint64(size-off) {
			return nil, fmt.Errorf("%w: section %q claims %d payload bytes, %d remain", ErrTruncated, name, payloadLen, size-off)
		}
		if _, dup := f.sections[name]; dup || (name == "blocks" && f.blocks != nil) {
			return nil, fmt.Errorf("%w: duplicate section %q", ErrCorrupt, name)
		}
		if name == "blocks" {
			if f.blocks, err = readBlocksSection(src, off, int64(payloadLen), wantCRC); err != nil {
				return nil, err
			}
		} else {
			payload, err := src.at(off, int(payloadLen))
			if err != nil {
				return nil, err
			}
			if crc := sectionCRC(name, payload); crc != wantCRC {
				return nil, fmt.Errorf("%w: section %q CRC %08x, computed %08x", ErrChecksum, name, wantCRC, crc)
			}
			f.sections[name] = payload
		}
		off += int64(payloadLen)
	}
}

// sectionCRC is a section frame's CRC32-IEEE of name ++ payload.
func sectionCRC(name string, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE([]byte(name)), crc32.IEEETable, payload)
}

// open walks src and looks up the family its "algo" section names. The
// lookup comes before anything family-specific, so what a file is (an
// unknown algo) is reported before what it lacks.
func open(src source, size int64) (*file, family, error) {
	f, err := parse(src, size)
	if err != nil {
		return nil, family{}, err
	}
	algo, err := f.section("algo")
	if err != nil {
		return nil, family{}, err
	}
	f.header.Algo = string(algo)
	fam, ok := families[f.header.Algo]
	if !ok {
		return nil, family{}, fmt.Errorf("%w: unknown algo %q", ErrCorrupt, f.header.Algo)
	}
	return f, fam, nil
}

// section returns a named section's payload; a missing section is a
// structural corruption (every family writes a fixed section set).
func (f *file) section(name string) ([]byte, error) {
	p, ok := f.sections[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
	}
	return p, nil
}

// ---- payload encoding ---------------------------------------------------

// enc is an append-only little-endian payload encoder.
type enc struct {
	b []byte
}

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }
func (e *enc) f32(v float32) {
	e.u32(math.Float32bits(v))
}

// dec is the matching cursor decoder. The payload it reads has already
// passed its CRC, so an overrun here means the writer and reader
// disagree structurally: that is ErrCorrupt, not truncation. The error
// is sticky; callers check err once after the reads.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(need int) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: payload overrun (need %d bytes at offset %d of %d)", ErrCorrupt, need, d.off, len(d.b))
	}
}

func (d *dec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(n)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() uint8 {
	p := d.bytes(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.bytes(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *dec) u64() uint64 {
	p := d.bytes(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) f32() float32 { return math.Float32frombits(d.u32()) }

// intn decodes a u32 and range-checks it against [0, max]; violations
// poison the decoder with ErrCorrupt.
func (d *dec) intn(max int, what string) int {
	v := int(d.u32())
	if d.err == nil && (v < 0 || v > max) {
		d.err = fmt.Errorf("%w: %s %d outside [0, %d]", ErrCorrupt, what, v, max)
	}
	return v
}

// done verifies the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d unread payload bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}
