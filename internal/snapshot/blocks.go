package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"ndsearch/internal/graph"
	"ndsearch/internal/vec"
)

// Page-served layout ("blocks" section, every family since version 4;
// the graph families' since version 3).
//
// The section co-locates each node's adjacency and vector in one
// fixed-size record, packs records into pages of basePageSize-aligned
// size, and places the whole node image at a page-aligned absolute file
// offset — the DiskANN-style layout the paper's SSD cost model assumes
// (one page fetch yields both the neighbor list and the bytes needed to
// score the node, §II-B). Payload:
//
//	45       meta (below)
//	pad      zero bytes so imageOff lands on a page boundary
//	imageLen node image: ceil(n/nodesPerPage) pages of pageSize bytes
//
// meta (all integers little-endian):
//
//	offset  size  field
//	0       4     pageSize (multiple of basePageSize, >= nodeLen)
//	4       4     nodeLen  (bytes per node record)
//	8       4     nodesPerPage (= pageSize / nodeLen)
//	12      4     n (node count, must match header rows)
//	16      4     dim (must match header dim)
//	20      4     maxDegree (record's neighbor-slot count)
//	24      1     quantized (1 if records carry SQ8 codes)
//	25      8     imageOff (absolute file offset of the node image)
//	33      8     imageLen
//	41      4     CRC32-IEEE of bytes 0..40
//
// node record (nodeLen bytes, records never straddle a page):
//
//	4                     degree (u32, <= maxDegree)
//	4*maxDegree           neighbor IDs, unused slots zero
//	StoredBytes(elem,dim) vector, at-rest element encoding (vec.Encode)
//	dim                   int8 SQ8 codes, only when quantized
//
// The meta carries its own CRC (in addition to the section CRC) so the
// paged loader can validate it from a single small read without
// checksumming the multi-megabyte image.

const (
	// basePageSize is the alignment quantum for block images; pageSize is
	// always a multiple of it (one OS page / one modeled SSD page read).
	basePageSize = 4096

	blockMetaSize = 45
)

// blockMeta is the decoded geometry of a "blocks" section.
type blockMeta struct {
	pageSize     int
	nodeLen      int
	nodesPerPage int
	n            int
	dim          int
	maxDegree    int
	quantized    bool
	imageOff     int64
	imageLen     int64
}

// recordLen returns the node-record size implied by the at-rest element
// kind and the meta's geometry fields.
func recordLen(elem vec.ElemKind, dim, maxDegree int, quantized bool) int {
	l := 4 + 4*maxDegree + vec.StoredBytes(elem, dim)
	if quantized {
		l += dim
	}
	return l
}

// pages returns the page count of the node image.
func (m blockMeta) pages() int64 {
	return int64((m.n + m.nodesPerPage - 1) / m.nodesPerPage)
}

// nodeOffset returns the absolute file offset of node v's record.
func (m blockMeta) nodeOffset(v uint32) int64 {
	page := int64(v) / int64(m.nodesPerPage)
	slot := int64(v) % int64(m.nodesPerPage)
	return m.imageOff + page*int64(m.pageSize) + slot*int64(m.nodeLen)
}

// vecOffset is the byte offset of the vector inside a node record.
func (m blockMeta) vecOffset() int { return 4 + 4*m.maxDegree }

// codeOffset is the byte offset of the SQ8 codes inside a node record
// (meaningful only when quantized).
func (m blockMeta) codeOffset(elem vec.ElemKind) int {
	return m.vecOffset() + vec.StoredBytes(elem, m.dim)
}

// encodeTo appends the 45-byte meta, including its CRC.
func (m blockMeta) encodeTo(e *enc) {
	start := len(e.b)
	e.u32(uint32(m.pageSize))
	e.u32(uint32(m.nodeLen))
	e.u32(uint32(m.nodesPerPage))
	e.u32(uint32(m.n))
	e.u32(uint32(m.dim))
	e.u32(uint32(m.maxDegree))
	if m.quantized {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u64(uint64(m.imageOff))
	e.u64(uint64(m.imageLen))
	e.u32(crc32.ChecksumIEEE(e.b[start : start+blockMetaSize-4]))
}

// blocksSection is a walked blocks section: its meta, and where its
// payload sits in the file with the frame CRC that covers it.
type blocksSection struct {
	meta     blockMeta
	off, len int64  // payload offset and length
	crc      uint32 // CRC32-IEEE of "blocks" ++ payload, checked by Load only
}

// readBlocksSection reads the meta at the head of a blocks payload of n
// bytes at off and checks the frame geometry: meta, alignment padding
// shorter than a page, then the image filling the payload exactly. The
// meta's agreement with the header is prepareBlocks' job.
func readBlocksSection(src source, off, n int64, crc uint32) (*blocksSection, error) {
	head, err := src.at(off, int(min(n, blockMetaSize)))
	if err != nil {
		return nil, err
	}
	m, err := parseBlockMeta(head)
	if err != nil {
		return nil, err
	}
	pad := m.imageOff - off - blockMetaSize
	if pad < 0 || (m.pageSize > 0 && pad >= int64(m.pageSize)) {
		return nil, fmt.Errorf("%w: image offset %d does not follow the blocks meta at %d", ErrCorrupt, m.imageOff, off)
	}
	if want := blockMetaSize + pad + m.imageLen; n != want {
		if n < want {
			return nil, fmt.Errorf("%w: blocks payload is %d bytes, image needs %d", ErrTruncated, n, want)
		}
		return nil, fmt.Errorf("%w: blocks payload is %d bytes, image needs %d", ErrCorrupt, n, want)
	}
	return &blocksSection{meta: m, off: off, len: n, crc: crc}, nil
}

// prepareBlocks is what both serving paths check before a family's
// node records are read, by Load (decodeBlocks) or served from the file
// (OpenPagedFile): the file has a blocks section, its meta agrees with
// the header, and an "sq8s" section is present exactly when the records
// carry SQ8 codes. It sets the header's Quantized and Rerank fields and
// returns the meta and the SQ8 scales (nil unless quantized).
func (f *file) prepareBlocks() (blockMeta, []float32, error) {
	h := &f.header
	if f.blocks == nil {
		return blockMeta{}, nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, "blocks")
	}
	m := f.blocks.meta
	if err := m.validate(*h); err != nil {
		return blockMeta{}, nil, err
	}
	rerank, scales, hasScales, err := parseSQ8Scales(f, *h)
	if err != nil {
		return blockMeta{}, nil, err
	}
	if hasScales != m.quantized {
		return blockMeta{}, nil, fmt.Errorf("%w: blocks quantized=%v but sq8s section present=%v", ErrCorrupt, m.quantized, hasScales)
	}
	h.Quantized, h.Rerank = m.quantized, rerank
	return m, scales, nil
}

// parseBlockMeta decodes and CRC-checks a 45-byte meta buffer.
// Geometry is validated against the header separately.
func parseBlockMeta(buf []byte) (blockMeta, error) {
	var m blockMeta
	if len(buf) < blockMetaSize {
		return m, fmt.Errorf("%w: blocks meta is %d bytes, need %d", ErrTruncated, len(buf), blockMetaSize)
	}
	buf = buf[:blockMetaSize]
	d := &dec{b: buf}
	m.pageSize = d.intn(math.MaxInt32, "blocks pageSize")
	m.nodeLen = d.intn(math.MaxInt32, "blocks nodeLen")
	m.nodesPerPage = d.intn(math.MaxInt32, "blocks nodesPerPage")
	m.n = d.intn(math.MaxInt32, "blocks n")
	m.dim = d.intn(math.MaxInt32, "blocks dim")
	m.maxDegree = d.intn(math.MaxInt32, "blocks maxDegree")
	q := d.u8()
	m.imageOff = int64(d.u64())
	m.imageLen = int64(d.u64())
	want := d.u32()
	if d.err != nil {
		return m, d.err
	}
	if got := crc32.ChecksumIEEE(buf[:blockMetaSize-4]); got != want {
		return m, fmt.Errorf("%w: blocks meta CRC %08x, computed %08x", ErrChecksum, want, got)
	}
	if q > 1 {
		return m, fmt.Errorf("%w: blocks quantized flag %d", ErrCorrupt, q)
	}
	m.quantized = q == 1
	return m, nil
}

// validate checks the meta's internal geometry and its agreement with
// the container header. Alignment violations are ErrMisaligned; every
// other inconsistency is ErrCorrupt (the CRCs held, so the structure
// itself is wrong).
func (m blockMeta) validate(h Header) error {
	if m.n != h.Rows || m.dim != h.Dim {
		return fmt.Errorf("%w: blocks image is %d nodes x %d dims, header says %d x %d",
			ErrCorrupt, m.n, m.dim, h.Rows, h.Dim)
	}
	if m.n == 0 || m.dim == 0 {
		return fmt.Errorf("%w: empty blocks image", ErrCorrupt)
	}
	if m.maxDegree < 0 || m.maxDegree > m.n {
		return fmt.Errorf("%w: blocks maxDegree %d with %d nodes", ErrCorrupt, m.maxDegree, m.n)
	}
	if want := recordLen(h.Elem, m.dim, m.maxDegree, m.quantized); m.nodeLen != want {
		return fmt.Errorf("%w: blocks nodeLen %d, geometry implies %d", ErrCorrupt, m.nodeLen, want)
	}
	if m.pageSize <= 0 || m.pageSize%basePageSize != 0 {
		return fmt.Errorf("%w: blocks pageSize %d is not a positive multiple of %d", ErrCorrupt, m.pageSize, basePageSize)
	}
	if m.nodeLen > m.pageSize || m.nodesPerPage != m.pageSize/m.nodeLen {
		return fmt.Errorf("%w: blocks nodesPerPage %d, pageSize %d / nodeLen %d implies %d",
			ErrCorrupt, m.nodesPerPage, m.pageSize, m.nodeLen, m.pageSize/m.nodeLen)
	}
	if m.imageOff%int64(m.pageSize) != 0 {
		return fmt.Errorf("%w: image offset %d is not a multiple of page size %d", ErrMisaligned, m.imageOff, m.pageSize)
	}
	if want := m.pages() * int64(m.pageSize); m.imageLen != want {
		return fmt.Errorf("%w: blocks imageLen %d, geometry implies %d", ErrCorrupt, m.imageLen, want)
	}
	return nil
}

// encodeRowChecked writes row into dst in the at-rest element encoding,
// rejecting any component not exactly representable: a reload must
// never silently change distances. addBlocks, the one corpus writer,
// encodes every record's row through it.
func encodeRowChecked(elem vec.ElemKind, i int, row vec.Vector, dst []byte) error {
	if _, err := vec.Encode(elem, row, dst); err != nil {
		return err
	}
	if j := vec.Unrepresentable(elem, row); j >= 0 {
		return fmt.Errorf("%w: row %d component %d (%v) is not representable as %v; save with vec.F32",
			ErrBadInput, i, j, row[j], elem)
	}
	return nil
}

// addBlocks appends the "blocks" section: meta, alignment padding, then
// the page-aligned node image. It must be the last section added — the
// image offset is computed from the encoded size of everything before
// it, and assemble preserves section order. A flat family passes an
// edgeless base, so its records are a zero degree word and the row.
func addBlocks(b *builder, h Header, mat *vec.Matrix, base *graph.Graph, elem vec.ElemKind) error {
	n, dim := mat.Rows(), mat.Dim()
	if n == 0 {
		return fmt.Errorf("%w: empty corpus matrix", ErrBadInput)
	}
	if base.Len() != n {
		return fmt.Errorf("%w: base graph has %d vertices, corpus has %d", ErrBadInput, base.Len(), n)
	}
	sq := mat.SQ8()
	quantized := sq != nil
	maxDegree := 0
	for v := 0; v < n; v++ {
		if d := base.Degree(uint32(v)); d > maxDegree {
			maxDegree = d
		}
	}
	m := blockMeta{
		nodeLen:   recordLen(elem, dim, maxDegree, quantized),
		n:         n,
		dim:       dim,
		maxDegree: maxDegree,
		quantized: quantized,
	}
	m.pageSize = basePageSize
	for m.pageSize < m.nodeLen {
		m.pageSize += basePageSize
	}
	m.nodesPerPage = m.pageSize / m.nodeLen
	m.imageLen = m.pages() * int64(m.pageSize)

	// The payload starts after every frame already queued plus this
	// section's own frame header; the image starts at the next page
	// boundary after the 45-byte meta.
	const name = "blocks"
	payloadOff := int64(b.encodedSize() + 1 + len(name) + 8 + 4)
	m.imageOff = payloadOff + blockMetaSize
	if rem := m.imageOff % int64(m.pageSize); rem != 0 {
		m.imageOff += int64(m.pageSize) - rem
	}
	pad := int(m.imageOff - payloadOff - blockMetaSize)

	var e enc
	e.b = make([]byte, 0, blockMetaSize+pad+int(m.imageLen))
	m.encodeTo(&e)
	e.b = append(e.b, make([]byte, pad)...)
	image := make([]byte, m.imageLen)
	vecOff, codeOff := m.vecOffset(), m.codeOffset(elem)
	for v := 0; v < n; v++ {
		rec := image[m.nodeOffset(uint32(v))-m.imageOff:]
		rec = rec[:m.nodeLen]
		nbrs := base.Neighbors(uint32(v))
		binary.LittleEndian.PutUint32(rec[0:4], uint32(len(nbrs)))
		for i, w := range nbrs {
			binary.LittleEndian.PutUint32(rec[4+4*i:], w)
		}
		if err := encodeRowChecked(elem, v, mat.Row(v), rec[vecOff:codeOff]); err != nil {
			return err
		}
		if quantized {
			copy(rec[codeOff:], sq.Row(v))
		}
	}
	e.b = append(e.b, image...)
	b.add(name, e.b)
	return nil
}

// decodeBlocks reconstructs the corpus matrix (SQ8 tier attached) and
// base adjacency of a walked snapshot file whose bytes are data,
// for the in-RAM serving path. Beyond prepareBlocks it does what only
// this path does: checksum the whole blocks payload and check its
// padding is zero, then decode every record. Reconstruction is
// byte-identical to the saved index: rows decode through vec.Decode into
// a fresh vec.NewMatrix (norms recomputed with the build's
// accumulation), neighbor order is preserved, and SQ8FromParts
// recomputes code norms exactly.
func decodeBlocks(f *file, data image) (*vec.Matrix, *graph.Graph, error) {
	m, scales, err := f.prepareBlocks()
	if err != nil {
		return nil, nil, err
	}
	h, b := f.header, f.blocks
	payload := data[b.off : b.off+b.len]
	if crc := sectionCRC("blocks", payload); crc != b.crc {
		return nil, nil, fmt.Errorf("%w: section %q CRC %08x, computed %08x", ErrChecksum, "blocks", b.crc, crc)
	}
	pad := m.imageOff - b.off - blockMetaSize
	for _, pb := range payload[blockMetaSize : blockMetaSize+pad] {
		if pb != 0 {
			return nil, nil, fmt.Errorf("%w: nonzero blocks alignment padding", ErrCorrupt)
		}
	}
	image := payload[blockMetaSize+pad:]

	rows := make([]vec.Vector, m.n)
	// The codes are copied out into one buffer of their own: the SQ8
	// tier retains what SQ8FromParts is handed, and a subslice of data
	// would keep the whole file image reachable.
	var codes []byte
	if m.quantized {
		codes = make([]byte, m.n*m.dim)
	}
	g := graph.New(m.n)
	vecOff, codeOff := m.vecOffset(), m.codeOffset(h.Elem)
	for v := 0; v < m.n; v++ {
		rec := image[m.nodeOffset(uint32(v))-m.imageOff:]
		rec = rec[:m.nodeLen]
		deg := int(binary.LittleEndian.Uint32(rec[0:4]))
		if deg > m.maxDegree {
			return nil, nil, fmt.Errorf("%w: node %d degree %d exceeds maxDegree %d", ErrCorrupt, v, deg, m.maxDegree)
		}
		nbrs := make([]uint32, deg)
		for i := range nbrs {
			w := binary.LittleEndian.Uint32(rec[4+4*i:])
			if int(w) >= m.n {
				return nil, nil, fmt.Errorf("%w: node %d neighbor %d out of range %d", ErrCorrupt, v, w, m.n)
			}
			nbrs[i] = w
		}
		g.SetNeighbors(uint32(v), nbrs)
		row, err := vec.Decode(h.Elem, m.dim, rec[vecOff:codeOff])
		if err != nil {
			return nil, nil, corrupt(err)
		}
		rows[v] = row
		if m.quantized {
			copy(codes[v*m.dim:(v+1)*m.dim], rec[codeOff:codeOff+m.dim])
		}
	}
	mat := vec.NewMatrix(rows)
	if m.quantized {
		sq, err := vec.SQ8FromParts(m.dim, m.n, scales, codes)
		if err != nil {
			return nil, nil, corrupt(err)
		}
		if err := mat.AttachSQ8(sq); err != nil {
			return nil, nil, corrupt(err)
		}
	}
	return mat, g, nil
}
