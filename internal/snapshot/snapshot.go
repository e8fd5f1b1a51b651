// Package snapshot persists built ANNS indexes to a versioned,
// checksummed, little-endian binary format and restores them without
// re-running construction — the build-once / serve-many model the paper
// assumes (its graph indexes are built offline and served from SSD;
// §II-B). A loaded index answers searches byte-identically to the
// freshly built one: the corpus matrix round-trips through
// vec.Encode/Decode (norms recomputed with the same unrolled
// accumulation Matrix construction uses), and every family's structure
// (graph adjacency order, entry points, levels, centroids, codebooks,
// posting lists) is preserved exactly.
//
// The container is a fixed header (magic, format version, metric, dim,
// element kind, all CRC-guarded) followed by named CRC32-guarded
// sections; see format.go for the layout and DESIGN.md §8 for the
// policy. Families register their codecs in the registry below; Load
// and OpenPagedFile dispatch on the algo recorded in the file.
//
// Corruption surfaces as one of four typed errors — ErrBadMagic,
// ErrVersion, ErrChecksum, ErrTruncated (plus ErrCorrupt for structural
// damage behind a valid checksum) — and never as a panic.
package snapshot

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ndsearch/internal/ann"
	"ndsearch/internal/hcnng"
	"ndsearch/internal/hnsw"
	"ndsearch/internal/ivfpq"
	"ndsearch/internal/togg"
	"ndsearch/internal/vamana"
	"ndsearch/internal/vec"
)

// Typed load errors, discriminated so operators can tell a stale or
// foreign file (ErrBadMagic, ErrVersion) from disk damage (ErrChecksum,
// ErrTruncated) from a writer/reader mismatch (ErrCorrupt). Match with
// errors.Is.
var (
	// ErrBadMagic means the file does not start with the snapshot magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrVersion means the file's format version is not FormatVersion,
	// the only one this build reads.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum means a CRC32 guard (header, section, or manifest
	// file hash) did not match the stored bytes.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrTruncated means the file ended inside a header or section
	// frame.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrCorrupt means the framing and checksums held but the decoded
	// structure is invalid (missing section, out-of-range vertex, ...).
	ErrCorrupt = errors.New("snapshot: corrupt snapshot")
	// ErrMisaligned means a blocks section records a node image offset
	// that is not page-aligned, so the file cannot be page-served.
	ErrMisaligned = errors.New("snapshot: misaligned block image")
	// ErrUnsupported means the operation is valid for some snapshots
	// but not this one: re-saving a paged index, an unknown serving
	// backend, a quantized section on an index whose matrix has no SQ8
	// tier.
	ErrUnsupported = errors.New("snapshot: unsupported operation")
	// ErrBadInput means the in-memory index handed to Save cannot be
	// encoded as requested: empty corpus, graph/corpus length
	// mismatch, or components not representable in the requested
	// at-rest element kind.
	ErrBadInput = errors.New("snapshot: invalid input")
)

// Saver appends a family's structure sections (its "params" and
// navigation sections) to the file under construction and reports the
// SQ8 mode, the one header field only the family knows: Quantized and
// the rerank width stored beside the SQ8 tier. Everything else is
// Save's own: the "algo" section, the header's algo, metric, element
// kind and shape, the "sq8s" section, and the page-aligned "blocks"
// section packing the corpus rows, SQ8 codes and base adjacency it
// takes from the index's store.
type Saver func(idx ann.Index, b *builder) (Header, error)

// family is one algo's codec: save queues its structure sections, and
// reconstruct rebuilds the index from them over a NodeStore holding
// its records — a resident store from Load, a paged one from
// OpenPagedFile. Every family's corpus rows (and a graph family's SQ8
// codes and base adjacency) live in the page-aligned "blocks" section,
// so every family serves in every mode.
type family struct {
	save        Saver
	reconstruct func(h Header, f *file, store ann.NodeStore) (ann.Index, error)
}

// families is the codec registry, keyed by the algo name recorded in
// the file's "algo" section. Names match engine.BuilderByName where
// both exist ("diskann" is the Vamana graph).
var families = map[string]family{
	"exact":   {save: saveExact, reconstruct: reconstructExact},
	"hnsw":    {save: saveHNSW, reconstruct: reconstructHNSW},
	"diskann": {save: saveVamana, reconstruct: reconstructVamana},
	"hcnng":   {save: saveHCNNG, reconstruct: reconstructHCNNG},
	"togg":    {save: saveTOGG, reconstruct: reconstructTOGG},
	"ivfpq":   {save: saveIVFPQ, reconstruct: reconstructIVFPQ},
}

// errPaged rejects re-saving a paged index: its corpus and adjacency
// live in snapshot blocks it does not own, so the original snapshot file
// already is its serialized form.
var errPaged = fmt.Errorf("%w: paged index cannot be re-saved; copy the snapshot file instead", ErrUnsupported)

// Detect returns the registry name for a concrete index type.
func Detect(idx ann.Index) (string, error) {
	switch idx.(type) {
	case *ann.Exact:
		return "exact", nil
	case *hnsw.Index:
		return "hnsw", nil
	case *vamana.Index:
		return "diskann", nil
	case *hcnng.Index:
		return "hcnng", nil
	case *togg.Index:
		return "togg", nil
	case *ivfpq.Index:
		return "ivfpq", nil
	default:
		return "", fmt.Errorf("%w: no codec for index type %T", ErrUnsupported, idx)
	}
}

// Save serialises idx to w and returns the header it wrote, the same
// Header Load and OpenPagedFile parse back from the file. elem is the
// at-rest element kind of the corpus matrix (vec.F32 is always
// lossless; U8/I8 shrink the file 4x but are rejected unless every
// stored component is representable, so a reload can never silently
// change search results). Only a resident index saves: a paged one
// (whose store is not an *ann.KernelStore) is refused with
// ErrUnsupported.
func Save(w io.Writer, idx ann.Index, elem vec.ElemKind) (Header, error) {
	algo, err := Detect(idx)
	if err != nil {
		return Header{}, err
	}
	store, ok := idx.Store().(*ann.KernelStore)
	if !ok || store.BaseGraph() == nil {
		return Header{}, fmt.Errorf("snapshot: save %s: %w", algo, errPaged)
	}
	mat := store.Matrix()
	b := &builder{}
	b.add("algo", []byte(algo))
	h, err := families[algo].save(idx, b)
	h.Algo, h.Metric, h.Elem, h.Dim, h.Rows = algo, idx.Metric(), elem, mat.Dim(), mat.Rows()
	if err == nil && h.Quantized {
		err = addSQ8Scales(b, mat, h.Rerank)
	}
	// Corpus rows, codes, and base adjacency co-locate in the
	// page-aligned "blocks" section, written last so its node image can
	// sit at a page boundary computed from everything that precedes it.
	if err == nil {
		err = addBlocks(b, h, mat, store.BaseGraph(), elem)
	}
	if err != nil {
		return Header{}, fmt.Errorf("snapshot: save %s: %w", algo, err)
	}
	if _, err := w.Write(b.assemble(h)); err != nil {
		return Header{}, fmt.Errorf("snapshot: write: %w", err)
	}
	return h, nil
}

// Load restores an index from the whole file's bytes, dispatching on
// the algo recorded in the file, and returns it with the file's parsed
// header. It walks data with the same parser OpenPagedFile uses, then
// checks what only a full read can: the CRC of the whole blocks
// section, before decoding every node record. The returned value's
// concrete type is the family index (*hnsw.Index, *ann.Exact, ...), and
// it holds no reference into data: every section it keeps is decoded or
// copied out, so the image is garbage once Load returns.
func Load(data []byte) (ann.Index, Header, error) {
	f, fam, err := open(image(data), int64(len(data)))
	if err != nil {
		return nil, Header{}, err
	}
	// Rows, codes, and base adjacency live in the page-aligned "blocks"
	// section. decodeBlocks reconstructs the matrix (norms recomputed
	// with the same accumulation the build used) and attaches the SQ8
	// tier from the scales-only "sq8s" section.
	mat, base, err := decodeBlocks(f, data)
	if err != nil {
		return nil, Header{}, err
	}
	store, err := ann.NewKernelStore(f.header.Metric, mat, base, f.header.Quantized)
	if err != nil {
		return nil, Header{}, corrupt(err)
	}
	idx, err := fam.reconstruct(f.header, f, store)
	return idx, f.header, err
}

// SaveFile writes idx to path atomically (temp file synced, then
// renamed), creating parent directories as needed. Syncing the
// directory entry is the caller's: the engine syncs a generation
// directory once, after all of its files. It returns the header Save wrote and
// the CRC32-IEEE of the whole file, computed while writing, so callers
// recording what a file holds and its checksum (the engine manifest)
// need not read the file back.
func SaveFile(path string, idx ann.Index, elem vec.ElemKind) (Header, uint32, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return Header{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return Header{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	crc := crc32.NewIEEE()
	h, err := Save(io.MultiWriter(tmp, crc), idx, elem)
	if err != nil {
		tmp.Close()
		return Header{}, 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return Header{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Header{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Header{}, 0, fmt.Errorf("snapshot: %w", err)
	}
	return h, crc.Sum32(), nil
}
