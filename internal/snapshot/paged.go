package snapshot

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"ndsearch/internal/ann"
	"ndsearch/internal/vec"
)

// This file is the beyond-RAM serving path: a NodeStore that reads a
// snapshot's page-aligned blocks section directly from the file,
// keeping only the pinned structure sections (params, upper HNSW
// layers, entry points, SQ8 scales, ivfpq's centroids, codebooks and
// postings) and a small bounded page cache resident. Bytes come from
// an mmap of the file where the platform supports it, with a
// sectioned-ReadAt backend as the fallback; both feed the same
// bounded cache, so the software page-touch and
// page-fault counters are backend-independent and comparable to the
// searssd cost model's page-read predictions.
//
// Records are scored where they lie: every distance is one of vec's
// at-rest kernels (PreparedQuery.DistanceToStored / DistanceToCodeBytes)
// over the record's bytes in the cache page, never a decoded copy.
// Byte-identity with in-RAM serving holds because those kernels share
// the resident Kernel's accumulation order bit for bit, over exactly
// the bytes Save encoded.

// PagedOptions configures OpenPagedFile.
type PagedOptions struct {
	// Backend selects the byte source: "mmap" (falls back to "readat"
	// where mmap is unavailable) or "readat". Empty means "mmap".
	Backend string
	// CachePages bounds the resident page cache. 0 means
	// DefaultCachePages; the cache never holds fewer than one page.
	CachePages int
}

// DefaultCachePages is the pinned-page cache budget when the caller
// does not set one: 256 pages × 4 KiB base pages = 1 MiB resident.
const DefaultCachePages = 256

// PagedStats is a snapshot of a paged store's software counters.
type PagedStats struct {
	// Touches counts node-record look-ups: one per id asked of the store
	// (a Dist, Neighbors or Components call, or each id of a Dists call),
	// however many of them one cache lock hold resolves.
	Touches uint64
	// Faults counts cache misses, i.e. page reads from the backend.
	Faults uint64
	// IOErrors counts backend read failures (served as zero records).
	IOErrors uint64
	// ResidentPages and CachePages are the current and maximum cache
	// occupancy; PageSize and TotalPages describe the block image.
	ResidentPages int
	CachePages    int
	PageSize      int
	TotalPages    int64
}

// pageBackend fetches one page of the node image by page index.
type pageBackend interface {
	readPage(i int64) ([]byte, error)
	// blocking reports whether readPage performs I/O, as opposed to
	// slicing memory already mapped: the cache drops its mutex around a
	// blocking read and holds it across any other.
	blocking() bool
	Close() error
}

// mmapBackend serves pages as subslices of a read-only mapping of the
// whole snapshot file — no copies, the OS pages bytes in on demand.
type mmapBackend struct {
	data []byte
	meta blockMeta
}

func (b *mmapBackend) readPage(i int64) ([]byte, error) {
	off := b.meta.imageOff + i*int64(b.meta.pageSize)
	return b.data[off : off+int64(b.meta.pageSize)], nil
}

func (b *mmapBackend) blocking() bool { return false }

func (b *mmapBackend) Close() error { return munmapFile(b.data) }

// readatBackend reads pages with positioned reads into fresh buffers.
// Evicted buffers are never reused, so slices handed out by the cache
// stay valid for concurrent readers (the GC keeps them alive).
type readatBackend struct {
	f    *os.File
	meta blockMeta
}

func (b *readatBackend) readPage(i int64) ([]byte, error) {
	buf := make([]byte, b.meta.pageSize)
	off := b.meta.imageOff + i*int64(b.meta.pageSize)
	if _, err := b.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (b *readatBackend) blocking() bool { return true }

func (b *readatBackend) Close() error { return nil }

// pageCache is the bounded exact LRU of resident pages. For the readat
// backend it is the only copy of the bytes; for mmap it pins mapping
// subslices, making the fault counter a software model of the working
// set rather than a hardware measurement.
//
// Pages are dense (0..totalPages-1), so residency is a page→slot table
// and the recency list is intrusive over the slot arrays: a touch or a
// fault moves indices, allocating nothing. The table costs 4 bytes per
// page of the image whatever the budget; the slot arrays grow with
// occupancy up to cap.
type pageCache struct {
	mu       sync.Mutex
	cap      int
	resident atomic.Int32 // len(page), written under mu, read without it
	slot     []int32      // page → its index in the slot arrays, -1 when not resident

	// Slot arrays, parallel: the resident page, its bytes, and its
	// neighbours in recency order (-1 at either end).
	page       []int64
	buf        [][]byte
	prev, next []int32
	head, tail int32 // most / least recently used slot, -1 when empty
}

func newPageCache(capPages int, totalPages int64) *pageCache {
	if capPages < 1 {
		capPages = 1
	}
	c := &pageCache{cap: capPages, slot: make([]int32, totalPages), head: -1, tail: -1}
	for i := range c.slot {
		c.slot[i] = -1
	}
	return c
}

// unlink removes slot i from the recency list.
func (c *pageCache) unlink(i int32) {
	p, n := c.prev[i], c.next[i]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

// pushFront makes slot i the most recently used.
func (c *pageCache) pushFront(i int32) {
	c.prev[i], c.next[i] = -1, c.head
	if c.head >= 0 {
		c.prev[c.head] = i
	} else {
		c.tail = i
	}
	c.head = i
}

// touch marks resident slot i most recently used.
func (c *pageCache) touch(i int32) {
	if c.head != i {
		c.unlink(i)
		c.pushFront(i)
	}
}

// resolve is the cache's one entry point: it looks up pages, in list
// order, under a single lock acquisition and writes each page's bytes
// to the matching out element. Per page it is an LRU get-then-fill: a
// resident page moves to the front; a miss counts a fault, reads the
// page from back and inserts it, evicting the least recently used; a
// failed read counts an I/O error, leaves the cache alone and yields
// nil. A list may name a page twice or be longer than the budget —
// each entry sees the cache as the entries before it left it, exactly
// as one call per page would.
//
// The lock hold is bookkeeping only: callers score the returned bytes
// after it ends. A non-blocking backend (mmap) reads under the lock — a
// subslice of the mapping; a blocking one (readat) is read with the
// lock dropped, so a slow disk never stalls other searches' hits, and
// insert re-checks residency on relock.
func (c *pageCache) resolve(back pageBackend, pages []int64, out [][]byte) (faults, ioErrs uint64) {
	blocking := back.blocking()
	c.mu.Lock()
	for k, id := range pages {
		if i := c.slot[id]; i >= 0 {
			c.touch(i)
			out[k] = c.buf[i]
			continue
		}
		faults++
		var buf []byte
		var err error
		if blocking {
			c.mu.Unlock()
			buf, err = back.readPage(id)
			c.mu.Lock()
		} else {
			buf, err = back.readPage(id)
		}
		if err != nil {
			ioErrs++
			out[k] = nil
			continue
		}
		out[k] = c.insert(id, buf)
	}
	c.mu.Unlock()
	return faults, ioErrs
}

// insert makes page id resident with bytes buf as the most recently
// used page and returns the resident bytes. If another search filled
// the page while the lock was dropped for the read, the second fill
// keeps the first buffer.
func (c *pageCache) insert(id int64, buf []byte) []byte {
	if i := c.slot[id]; i >= 0 {
		c.touch(i)
		return c.buf[i]
	}
	var i int32
	if len(c.page) < c.cap {
		i = int32(len(c.page))
		c.page = append(c.page, id)
		c.buf = append(c.buf, buf)
		c.prev = append(c.prev, -1)
		c.next = append(c.next, -1)
		c.resident.Store(int32(len(c.page)))
	} else {
		// Full: the least recently used page gives up its slot. Its
		// buffer is dropped, never recycled — readers may still hold it.
		i = c.tail
		c.unlink(i)
		c.slot[c.page[i]] = -1
		c.page[i], c.buf[i] = id, buf
	}
	c.slot[id] = i
	c.pushFront(i)
	return buf
}

// len returns the resident page count without taking the mutex.
func (c *pageCache) len() int { return int(c.resident.Load()) }

// PagedStore is the ann.NodeStore over a snapshot's blocks section.
// Safe for concurrent searches; all mutable state is the cache (mutex)
// and the counters (atomics). Serve-time I/O errors cannot panic a
// search: the affected record reads as empty and IOErrors increments.
type PagedStore struct {
	meta   blockMeta
	metric vec.Metric
	elem   vec.ElemKind
	scales []float32 // nil unless quantized
	back   pageBackend
	cache  *pageCache

	touches atomic.Uint64
	faults  atomic.Uint64
	ioErrs  atomic.Uint64

	vecOff  int
	vecEnd  int
	zeroRec []byte // served in place of a record the backend failed to read
}

var _ ann.NodeStore = (*PagedStore)(nil)

// resolveChunk bounds how many records one cache transaction resolves:
// the record slices live in a fixed array on the caller's stack, and an
// expansion (at most maxDegree ids) practically always fits in one.
const resolveChunk = 64

// records resolves the records of ids (at most resolveChunk of them)
// into recs in one cache transaction: one lock hold, one add per
// counter. Pages are touched in ids order, so touches, faults and
// evictions fall exactly as one look-up per id would make them. Each
// slice aliases a cache page — valid until Close (mmap) or indefinitely
// (readat buffers are never reused) — or is the zero record where the
// backend failed to read the page.
func (s *PagedStore) records(ids []uint32, recs [][]byte) {
	var pages [resolveChunk]int64
	perPage := uint32(s.meta.nodesPerPage)
	for i, v := range ids {
		pages[i] = int64(v / perPage)
	}
	s.touches.Add(uint64(len(ids)))
	faults, ioErrs := s.cache.resolve(s.back, pages[:len(ids)], recs)
	if faults > 0 {
		s.faults.Add(faults)
	}
	if ioErrs > 0 {
		s.ioErrs.Add(ioErrs)
	}
	nodeLen := s.meta.nodeLen
	for i, v := range ids {
		if recs[i] == nil {
			recs[i] = s.zeroRec
			continue
		}
		off := int(v-uint32(pages[i])*perPage) * nodeLen
		recs[i] = recs[i][off : off+nodeLen]
	}
}

// record returns node v's nodeLen-byte record.
func (s *PagedStore) record(v uint32) []byte {
	var rec [1][]byte
	s.records([]uint32{v}, rec[:])
	return rec[0]
}

// score evaluates q against a record where it lies: the SQ8 code bytes
// when codes is set, the at-rest row otherwise.
func (s *PagedStore) score(q *vec.PreparedQuery, rec []byte, codes bool) float32 {
	if codes {
		return q.DistanceToCodeBytes(rec[s.vecEnd : s.vecEnd+s.meta.dim])
	}
	return q.DistanceToStored(s.elem, rec[s.vecOff:s.vecEnd])
}

// Len returns the node count.
func (s *PagedStore) Len() int { return s.meta.n }

// Dim returns the vector dimensionality.
func (s *PagedStore) Dim() int { return s.meta.dim }

// Quantized reports whether traversal runs on SQ8 codes.
func (s *PagedStore) Quantized() bool { return s.meta.quantized }

// NodesPerPage returns how many records share one page (records never
// straddle a page boundary).
func (s *PagedStore) NodesPerPage() int { return s.meta.nodesPerPage }

// Prepare preprocesses a query for traversal: quantized under the
// resident scales when the store is quantized, plain otherwise.
func (s *PagedStore) Prepare(query vec.Vector) vec.PreparedQuery {
	if s.meta.quantized {
		return vec.PrepareQuantized(s.metric, query, s.scales)
	}
	return vec.PrepareQuery(s.metric, query)
}

// PrepareExact preprocesses a query for full-precision distances.
func (s *PagedStore) PrepareExact(query vec.Vector) vec.PreparedQuery {
	return vec.PrepareQuery(s.metric, query)
}

// Dist evaluates the traversal distance to node v from its record.
func (s *PagedStore) Dist(q vec.PreparedQuery, v uint32) float32 {
	return s.score(&q, s.record(v), s.meta.quantized)
}

// Dists evaluates the traversal distances to ids from their records.
// The whole list (each resolveChunk of it) is one cache transaction —
// pages resolved in ids order, so touches and faults fall exactly as
// one Dist call per id would make them — and the records are scored in
// place after the cache lock is released, so concurrent searches on one
// shard contend for bookkeeping only, never for the kernel. An at-rest
// chunk is scored in one batched call (vec's four-row L2 kernels).
func (s *PagedStore) Dists(q *vec.PreparedQuery, ids []uint32, out []float32) {
	var recs [resolveChunk][]byte
	for len(ids) > 0 {
		n := min(len(ids), resolveChunk)
		s.records(ids[:n], recs[:n])
		if s.meta.quantized {
			for i, rec := range recs[:n] {
				out[i] = s.score(q, rec, true)
			}
		} else {
			for i, rec := range recs[:n] {
				recs[i] = rec[s.vecOff:s.vecEnd]
			}
			q.DistancesToStored(s.elem, recs[:n], out[:n])
		}
		ids, out = ids[n:], out[n:]
	}
}

// DistExact evaluates the full-precision distance to node v.
func (s *PagedStore) DistExact(q vec.PreparedQuery, v uint32) float32 {
	return s.score(&q, s.record(v), false)
}

// Neighbors copies node v's adjacency into buf. The image carries no
// per-record CRC in paged mode, so the degree and IDs are range-clamped
// defensively: damage degrades recall, never memory safety.
func (s *PagedStore) Neighbors(v uint32, buf []uint32) []uint32 {
	rec := s.record(v)
	deg := int(binary.LittleEndian.Uint32(rec))
	if deg > s.meta.maxDegree {
		deg = 0
	}
	buf = buf[:0]
	for i := 0; i < deg; i++ {
		w := binary.LittleEndian.Uint32(rec[4+4*i:])
		if int(w) < s.meta.n {
			buf = append(buf, w)
		}
	}
	return buf
}

// Components appends node v's traversal-representation components at
// the listed dimensions, reading only those from the record: widened
// SQ8 codes when quantized, the at-rest row's float32 values otherwise.
func (s *PagedStore) Components(v uint32, dims []int, buf []float32) []float32 {
	rec := s.record(v)
	buf = buf[:0]
	if s.meta.quantized {
		src := rec[s.vecEnd : s.vecEnd+s.meta.dim]
		for _, d := range dims {
			buf = append(buf, float32(int8(src[d])))
		}
		return buf
	}
	src := rec[s.vecOff:s.vecEnd]
	for _, d := range dims {
		buf = append(buf, vec.DecodeAt(s.elem, src, d))
	}
	return buf
}

// Stats snapshots the software counters. It takes no lock: all four
// moving values are atomics.
func (s *PagedStore) Stats() PagedStats {
	return PagedStats{
		Touches:       s.touches.Load(),
		Faults:        s.faults.Load(),
		IOErrors:      s.ioErrs.Load(),
		ResidentPages: s.cache.len(),
		CachePages:    s.cache.cap,
		PageSize:      s.meta.pageSize,
		TotalPages:    s.meta.pages(),
	}
}

// PagedIndex couples a paged family index with the store serving it and
// the open snapshot file. Searches go through Index; the handle itself
// owns the file, the counters, and Close.
type PagedIndex struct {
	idx     ann.Index
	store   *PagedStore
	f       *os.File
	header  Header
	backend string
}

// Index returns the family index (*hnsw.Index, ...) serving over the
// paged store.
func (p *PagedIndex) Index() ann.Index { return p.idx }

// Store returns the paged NodeStore.
func (p *PagedIndex) Store() *PagedStore { return p.store }

// Header returns the parsed header: the file's algo, metric, corpus shape,
// element kind, and SQ8 mode.
func (p *PagedIndex) Header() Header { return p.header }

// Backend reports the byte source actually in use: "mmap" or "readat".
func (p *PagedIndex) Backend() string { return p.backend }

// Stats snapshots the store's software page counters.
func (p *PagedIndex) Stats() PagedStats { return p.store.Stats() }

// Close releases the mapping and the file handle. In-flight searches
// must have drained first.
func (p *PagedIndex) Close() error {
	err := p.store.back.Close()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OpenPagedFile opens a snapshot of any family for beyond-RAM serving:
// structure sections resident, node records read through a bounded
// page cache over mmap (or positioned reads). The returned index serves
// searches byte-identical to Load of the same file. A graph family
// traverses its records; exact scans every record; ivfpq keeps its
// centroids, codebooks and postings resident and reads a record only to
// re-rank it.
//
// The file is walked with Load's parser through positioned reads, so
// both entry points check the header, the frames, every navigation
// section's CRC, and the blocks meta and geometry alike, and report the
// same typed errors. What it skips is the blocks payload's CRC: reading
// the whole node image up front is what paged serving exists to avoid,
// so image damage degrades searches defensively instead (PagedStore).
func OpenPagedFile(path string, opts PagedOptions) (*PagedIndex, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	p, err := openPaged(fh, opts)
	if err != nil {
		fh.Close()
		return nil, err
	}
	return p, nil
}

func openPaged(fh *os.File, opts PagedOptions) (*PagedIndex, error) {
	st, err := fh.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	size := st.Size()
	f, fam, err := open(fileSource{fh}, size)
	if err != nil {
		return nil, err
	}
	meta, scales, err := f.prepareBlocks()
	if err != nil {
		return nil, err
	}
	h := f.header

	backend := opts.Backend
	if backend == "" {
		backend = "mmap"
	}
	var back pageBackend
	switch backend {
	case "mmap":
		data, merr := mmapFile(fh, size)
		if merr != nil {
			// Platform without mmap (or mapping failure): serve the same
			// pages with positioned reads.
			back, backend = &readatBackend{f: fh, meta: meta}, "readat"
		} else {
			back = &mmapBackend{data: data, meta: meta}
		}
	case "readat":
		back = &readatBackend{f: fh, meta: meta}
	default:
		return nil, fmt.Errorf("%w: unknown paged backend %q (want mmap or readat)", ErrUnsupported, backend)
	}

	cachePages := opts.CachePages
	if cachePages == 0 {
		cachePages = DefaultCachePages
	}
	store := &PagedStore{
		meta:    meta,
		metric:  h.Metric,
		elem:    h.Elem,
		scales:  scales,
		back:    back,
		cache:   newPageCache(cachePages, meta.pages()),
		vecOff:  meta.vecOffset(),
		vecEnd:  meta.codeOffset(h.Elem),
		zeroRec: make([]byte, meta.nodeLen),
	}
	idx, err := fam.reconstruct(h, f, store)
	if err != nil {
		back.Close()
		return nil, err
	}
	return &PagedIndex{idx: idx, store: store, f: fh, header: h, backend: backend}, nil
}
