package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"ndsearch/internal/snapshot"
	"ndsearch/internal/vec"
)

// This file persists and restores the full shard set: one snapshot file
// per shard plus a manifest recording the algorithm, build seed,
// partition bounds, and per-file checksums. Load rebuilds the engine
// without invoking any index Build, so a restart costs file I/O instead
// of graph construction — the build-once / serve-many model the paper's
// on-SSD indexes assume.
//
// An engine directory has one layout, written by Save and by every
// persisted compaction alike: a CURRENT pointer naming a gen-NNNNNN
// subdirectory that holds the manifest and shard files (see
// snapshot/generations.go).

// ManifestName is the manifest file written alongside the shard files.
const ManifestName = "manifest.json"

// Manifest describes a saved engine directory. It is not checksummed:
// Load cross-checks its Algo, ElemKind, Dim, Quantized, Rerank and each
// file's Rows against that CRC-guarded shard file's header (checkShard),
// so a hand-edited manifest cannot silently change the serving mode,
// the element kind writes are encoded in, or the rerank width a
// compaction rebuilds with.
type Manifest struct {
	// FormatVersion is the snapshot container version the shard files
	// were written with; Load accepts only snapshot.FormatVersion.
	FormatVersion int `json:"format_version"`
	// Algo is the shard index family (a snapshot registry name), as the
	// shard files' headers record it.
	Algo string `json:"algo"`
	// Dataset and Seed are provenance from Config.Meta.
	Dataset string `json:"dataset,omitempty"`
	Seed    int64  `json:"seed"`
	// ElemKind is the at-rest element kind the shard files were written
	// with (vec.ElemKind encoding), restored into Meta on Load so a
	// re-save keeps the compact representation, and upserts are checked
	// against it.
	ElemKind uint8 `json:"elem_kind"`
	// Quantized and Rerank record the shards' SQ8 traversal mode, as the
	// shard files' headers record it (Rerank is 0 unless Quantized: a
	// file stores the width only beside its SQ8 tier).
	Quantized bool `json:"quantized,omitempty"`
	Rerank    int  `json:"rerank,omitempty"`
	// Dim and Vectors describe the corpus; Bounds are the contiguous
	// partition offsets (len Shards+1, Bounds[i]..Bounds[i+1] is shard i).
	Dim     int   `json:"dim"`
	Vectors int   `json:"vectors"`
	Shards  int   `json:"shards"`
	Bounds  []int `json:"bounds"`
	// Generation is the base generation number (0 for a fresh build),
	// cross-checked against the gen-NNNNNN directory holding the
	// manifest.
	Generation int `json:"generation,omitempty"`
	// Ids is the global-position → external-ID table of a compacted
	// generation, strictly ascending and of length Vectors; omitted when
	// positions are the IDs (the identity fast path).
	Ids []uint32 `json:"ids,omitempty"`
	// Files lists the per-shard snapshot files with their CRC32-IEEE
	// whole-file checksums. File i is named shardFileName(i).
	Files []ShardFile `json:"files"`
}

// ShardFile is one per-shard snapshot file entry.
type ShardFile struct {
	Name  string `json:"name"`
	Rows  int    `json:"rows"`
	CRC32 uint32 `json:"crc32"`
}

// shardFileName is the name of shard i's snapshot file inside a
// generation directory: the one name the writer uses and the loader
// accepts, so a manifest cannot point the loader anywhere else.
func shardFileName(i int) string {
	return fmt.Sprintf("shard-%04d.ndx", i)
}

// Save persists the current base generation to dir (created if
// missing) through persistGeneration, the writer compaction uses. dir
// must not already hold a snapshot (a CURRENT file), so Save only ever
// creates a fresh generation directory and never touches a generation
// another snapshot serves.
//
// The delta tier must be clean (no un-compacted upserts or tombstones,
// no compaction in flight): a generation has nowhere to put delta
// state, so saving one would silently drop acknowledged writes. Compact
// first; a compacted engine saves fine (the manifest carries the
// external-ID table).
func (e *Engine) Save(dir string) error {
	e.genMu.RLock()
	defer e.genMu.RUnlock()
	if !e.delta.Empty() {
		return fmt.Errorf("engine: save: delta tier holds un-compacted writes; Compact first so the snapshot captures the merged corpus")
	}
	name, ok, err := snapshot.ReadCurrent(dir)
	if err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	if ok {
		return fmt.Errorf("engine: save: %s already holds a snapshot (%s names %s): %w",
			dir, snapshot.CurrentName, name, fs.ErrExist)
	}
	return persistGeneration(dir, e.gen, e.meta, e.dim)
}

// persistGeneration writes gen into root as a gen-NNNNNN subdirectory
// (NNNNNN = gen.num) — shard files atomically, the manifest last — and
// then atomically points root's CURRENT at it. Ordering is the
// crash-safety argument: the shard files and the manifest are synced,
// then the generation directory and root (which hold their entries),
// before WriteCurrent renames the pointer and syncs root again, so a
// crash anywhere — a power loss included — leaves CURRENT naming a
// fully written generation (the old one until the rename, the new one
// after) or, on a first save, no CURRENT at all. On failure the partial
// directory is removed; it is never one CURRENT names, since a
// compaction always writes a higher number and Save refuses a directory
// that has a CURRENT.
func persistGeneration(root string, gen *generation, meta Meta, dim int) (err error) {
	genName := snapshot.GenerationName(gen.num)
	gdir := filepath.Join(root, genName)
	if err := os.MkdirAll(gdir, 0o755); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	defer func() {
		if err != nil {
			_ = os.RemoveAll(gdir)
		}
	}()
	man := &Manifest{
		FormatVersion: snapshot.FormatVersion,
		Dataset:       meta.Dataset,
		Seed:          meta.Seed,
		ElemKind:      uint8(meta.Elem),
		Dim:           dim,
		Vectors:       gen.vectors,
		Shards:        len(gen.shards),
		Bounds:        []int{0},
		Generation:    gen.num,
		Ids:           gen.ids,
	}
	// The algo and SQ8 mode are recorded from the headers of the files
	// just written: a manifest copied from Meta would disagree with the
	// files whenever the caller's Meta does, and Load would reject them.
	for i, sh := range gen.shards {
		name := shardFileName(i)
		h, crc, err := snapshot.SaveFile(filepath.Join(gdir, name), sh.index, meta.Elem)
		if err != nil {
			return fmt.Errorf("engine: save shard %d: %w", i, err)
		}
		if i == 0 {
			// A wrong caller-supplied algo would make every future Load
			// reject this intact directory as corrupt — surface the bug
			// here; the deferred cleanup drops the partial generation.
			if meta.Algo != "" && meta.Algo != h.Algo {
				return fmt.Errorf("engine: save: Meta.Algo is %q but shards are %q", meta.Algo, h.Algo)
			}
			man.Algo, man.Quantized, man.Rerank = h.Algo, h.Quantized, h.Rerank
		} else if h.Algo != man.Algo || h.Quantized != man.Quantized || h.Rerank != man.Rerank {
			return fmt.Errorf("engine: save: shard %d is %s (quantized=%v rerank=%d), shard 0 is %s (quantized=%v rerank=%d)",
				i, h.Algo, h.Quantized, h.Rerank, man.Algo, man.Quantized, man.Rerank)
		}
		man.Files = append(man.Files, ShardFile{Name: name, Rows: h.Rows, CRC32: crc})
		man.Bounds = append(man.Bounds, man.Bounds[i]+h.Rows)
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: save manifest: %w", err)
	}
	if err := snapshot.WriteFileSync(filepath.Join(gdir, ManifestName), append(blob, '\n')); err != nil {
		return fmt.Errorf("engine: save manifest: %w", err)
	}
	for _, d := range []string{gdir, root} {
		if err := snapshot.SyncDir(d); err != nil {
			return fmt.Errorf("engine: save: %w", err)
		}
	}
	if err := snapshot.WriteCurrent(root, genName); err != nil {
		return fmt.Errorf("engine: save: %w", err)
	}
	return nil
}

// Serving modes for LoadOptions.Serve (and Engine.ServeMode).
const (
	// ServeRAM decodes every shard fully resident (the default).
	ServeRAM = "ram"
	// ServeMmap serves shard node records from a read-only mapping of
	// each snapshot file through a bounded page cache (beyond-RAM mode;
	// falls back to ServeReadAt where mmap is unavailable).
	ServeMmap = "mmap"
	// ServeReadAt is the paged mode over positioned reads.
	ServeReadAt = "readat"
)

// LoadOptions parameterises LoadWithOptions.
type LoadOptions struct {
	// Workers sizes the concurrent shard open and the search pool
	// (< 1 means GOMAXPROCS).
	Workers int
	// Serve selects the shard serving mode: ServeRAM (or empty),
	// ServeMmap, or ServeReadAt. Every family serves in every mode.
	Serve string
	// CachePages bounds each paged shard's resident page cache
	// (0 = snapshot.DefaultCachePages). Ignored for ServeRAM.
	CachePages int
}

// normalizeServe validates a serving-mode string, mapping "" to ServeRAM.
func normalizeServe(mode string) (string, error) {
	switch mode {
	case "", ServeRAM:
		return ServeRAM, nil
	case ServeMmap, ServeReadAt:
		return mode, nil
	default:
		return "", fmt.Errorf("engine: unknown serving mode %q (want %s, %s, or %s)",
			mode, ServeRAM, ServeMmap, ServeReadAt)
	}
}

// Load restores an engine from a directory written by Save and
// maintained by the compactor, serving the generation CURRENT names (a
// directory without CURRENT fails with an error matching
// fs.ErrNotExist): shard files are checksum-verified, decoded
// concurrently (bounded by workers, which also sizes the search pool;
// < 1 means GOMAXPROCS), and served without invoking any index Build.
// The returned manifest
// carries the provenance the writer recorded. Shards are fully
// resident; use LoadWithOptions for the paged (beyond-RAM) serving
// modes.
func Load(dir string, workers int) (*Engine, *Manifest, error) {
	return LoadWithOptions(dir, LoadOptions{Workers: workers})
}

// LoadWithOptions is Load with a serving-mode choice. With a paged mode
// (ServeMmap, ServeReadAt), each shard's structure sections are decoded
// resident while node records (vectors, plus adjacency for the graph
// families) stay in the file, read through a bounded per-shard page
// cache; the engine then serves corpora larger than memory, with
// software page-touch and fault counters exposed by Engine.PageStats.
// Every family serves paged: a graph shard traverses its records, an
// exact shard scans them all, an ivfpq shard reads one only to re-rank
// it. Paged results are byte-identical to RAM serving of the same
// directory.
//
// A loaded engine accepts Upsert/Delete (the delta tier's metric comes
// from the CRC-guarded shard files) and carries the shard builder
// Compact rebuilds with, reconstructed from the manifest's algo, seed,
// and quantization mode; a manifest no builder accepts fails the load.
// Compact additionally requires RAM serving.
func LoadWithOptions(dir string, opts LoadOptions) (*Engine, *Manifest, error) {
	mode, err := normalizeServe(opts.Serve)
	if err != nil {
		return nil, nil, err
	}
	// CURRENT names the generation subdirectory to serve.
	genName, ok, err := snapshot.ReadCurrent(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: load: %w", err)
	}
	if !ok {
		return nil, nil, fmt.Errorf("engine: load: %s has no %s: %w (re-run -save-index to write a snapshot there)",
			dir, snapshot.CurrentName, fs.ErrNotExist)
	}
	genNum, err := snapshot.ParseGenerationName(genName)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: load: %w", err)
	}
	loadDir := filepath.Join(dir, genName)
	blob, err := os.ReadFile(filepath.Join(loadDir, ManifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("engine: load: %w", err)
	}
	man := &Manifest{}
	if err := json.Unmarshal(blob, man); err != nil {
		return nil, nil, fmt.Errorf("engine: load manifest: %w", err)
	}
	if err := man.validate(); err != nil {
		return nil, nil, err
	}
	if man.Generation != genNum {
		return nil, nil, fmt.Errorf("engine: load manifest: %w: directory %s holds generation %d",
			snapshot.ErrCorrupt, genName, man.Generation)
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := make([]shard, man.Shards)
	err = fanOut(len(man.Files), workers, func(i int) (err error) {
		shards[i], err = openShard(loadDir, man, i, mode, opts.CachePages)
		return err
	})
	if err != nil {
		closePaged(shards)
		return nil, nil, err
	}
	meta := Meta{Algo: man.Algo, Dataset: man.Dataset, Seed: man.Seed, Elem: vec.ElemKind(man.ElemKind)}
	gen := newGeneration(genNum, shards, man.Ids, man.Vectors)
	// Reconstruct the shard builder so Compact can rebuild the base. Every
	// loadable directory has one: checkShard pinned the algo and the
	// quantized mode to the files, and the metric is the files' own.
	builder, err := BuilderWithOpts(man.Algo, shards[0].index.Metric(), man.Seed, IndexOpts{
		Quantized: man.Quantized, Rerank: man.Rerank,
	})
	if err != nil {
		closePaged(shards)
		return nil, nil, fmt.Errorf("engine: load: %w", err)
	}
	e := newEngine(gen, workers, man.Dim, meta, builder)
	e.genDir = dir
	e.reqShards = man.Shards
	if p := shards[0].paged; p != nil {
		// Report the backend actually serving: a requested mmap may have
		// fallen back to positioned reads on platforms without mmap.
		e.serveMode = p.Backend()
	}
	return e, man, nil
}

// validate checks the manifest's internal consistency before any shard
// file is read.
func (m *Manifest) validate() error {
	if m.FormatVersion != snapshot.FormatVersion {
		return fmt.Errorf("engine: load manifest: %w: version %d, this build reads only version %d",
			snapshot.ErrVersion, m.FormatVersion, snapshot.FormatVersion)
	}
	if m.Shards < 1 || len(m.Files) != m.Shards || len(m.Bounds) != m.Shards+1 {
		return fmt.Errorf("engine: load manifest: %d shards with %d files and %d bounds",
			m.Shards, len(m.Files), len(m.Bounds))
	}
	if m.Dim < 1 {
		return fmt.Errorf("engine: load manifest: dim %d", m.Dim)
	}
	if m.ElemKind > uint8(vec.I8) {
		return fmt.Errorf("engine: load manifest: unknown element kind %d", m.ElemKind)
	}
	if m.Rerank < 0 {
		return fmt.Errorf("engine: load manifest: rerank %d", m.Rerank)
	}
	if m.Generation < 0 {
		return fmt.Errorf("engine: load manifest: generation %d", m.Generation)
	}
	if m.Bounds[0] != 0 || m.Bounds[m.Shards] != m.Vectors {
		return fmt.Errorf("engine: load manifest: bounds %v do not cover %d vectors", m.Bounds, m.Vectors)
	}
	for i, f := range m.Files {
		// File names are untrusted input: anything but the name the writer
		// uses could point the loader at an arbitrary path.
		if f.Name != shardFileName(i) {
			return fmt.Errorf("engine: load manifest: %w: shard %d file %q, want %q",
				snapshot.ErrCorrupt, i, f.Name, shardFileName(i))
		}
		if want := m.Bounds[i+1] - m.Bounds[i]; f.Rows != want || want < 1 {
			return fmt.Errorf("engine: load manifest: shard %d has %d rows, bounds say %d", i, f.Rows, want)
		}
	}
	if m.Ids != nil {
		if len(m.Ids) != m.Vectors {
			return fmt.Errorf("engine: load manifest: %d ids for %d vectors", len(m.Ids), m.Vectors)
		}
		for i := 1; i < len(m.Ids); i++ {
			if m.Ids[i] <= m.Ids[i-1] {
				return fmt.Errorf("engine: load manifest: ids not strictly ascending at index %d", i)
			}
		}
	}
	return nil
}

// checkShard cross-checks the manifest's claims about shard i against
// h, the header of its CRC-guarded file: algo, row count, dim, element
// kind, and SQ8 mode (presence of the SQ8 tier, and the rerank width
// stored beside it). The manifest itself is not checksummed, so a
// manifest that disagrees must fail the load, not panic on the first
// search (ndserve validates query dims against the manifest) or refuse
// writes and compactions in the wrong element kind.
func checkShard(man *Manifest, i int, h snapshot.Header) error {
	f := man.Files[i]
	for _, c := range []struct {
		field      string
		file, want any
	}{
		{"algo", h.Algo, man.Algo},
		{"rows", h.Rows, f.Rows},
		{"dim", h.Dim, man.Dim},
		{"elem", h.Elem, vec.ElemKind(man.ElemKind)},
		{"quantized", h.Quantized, man.Quantized},
		{"rerank", h.Rerank, man.Rerank},
	} {
		if c.file != c.want {
			return fmt.Errorf("engine: load shard %d (%s): %w: file %s %v, manifest says %v",
				i, f.Name, snapshot.ErrCorrupt, c.field, c.file, c.want)
		}
	}
	return nil
}

// openShard opens shard i of the manifest in the given serving mode and
// cross-checks the manifest's claims against the header of its
// CRC-guarded file. The modes differ only in how the bytes arrive.
// ServeRAM reads the whole file, verifies the manifest's whole-file CRC,
// and decodes it with snapshot.Load. The paged modes open it with
// snapshot.OpenPagedFile, which walks the same sections but skips both
// the whole-file CRC and the blocks payload's: reading the block image
// up front is what paged serving exists to avoid, so serve-time record
// damage is handled defensively by the paged store. Both modes open
// every family. The returned shard's paged handle is nil in ServeRAM.
func openShard(dir string, man *Manifest, i int, mode string, cachePages int) (shard, error) {
	f := man.Files[i]
	path := filepath.Join(dir, f.Name)
	sh := shard{base: uint32(man.Bounds[i])}
	var h snapshot.Header
	if mode == ServeRAM {
		data, err := os.ReadFile(path)
		if err != nil {
			return shard{}, fmt.Errorf("engine: load shard %d: %w", i, err)
		}
		if got := crc32.ChecksumIEEE(data); got != f.CRC32 {
			return shard{}, fmt.Errorf("engine: load shard %d (%s): %w: file CRC %08x, manifest says %08x",
				i, f.Name, snapshot.ErrChecksum, got, f.CRC32)
		}
		if sh.index, h, err = snapshot.Load(bytes.NewReader(data)); err != nil {
			return shard{}, fmt.Errorf("engine: load shard %d (%s): %w", i, f.Name, err)
		}
	} else {
		p, err := snapshot.OpenPagedFile(path, snapshot.PagedOptions{Backend: mode, CachePages: cachePages})
		if err != nil {
			return shard{}, fmt.Errorf("engine: load shard %d (%s): %w", i, f.Name, err)
		}
		sh.index, sh.paged, h = p.Index(), p, p.Header()
	}
	if err := checkShard(man, i, h); err != nil {
		if sh.paged != nil {
			_ = sh.paged.Close()
		}
		return shard{}, err
	}
	return sh, nil
}
