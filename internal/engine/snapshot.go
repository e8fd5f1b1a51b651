package engine

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"ndsearch/internal/snapshot"
)

// This file persists and restores the full shard set: one snapshot file
// per shard plus a manifest recording what no shard file can say about
// itself (provenance, the external-ID table, and each file's row count
// and checksum). Load rebuilds the engine without invoking any index
// Build, so a restart costs file I/O instead of graph construction —
// the build-once / serve-many model the paper's on-SSD indexes assume.
//
// An engine directory has one layout, written by Save and by every
// persisted compaction alike: a CURRENT pointer naming a gen-NNNNNN
// subdirectory that holds the manifest and shard files (see
// snapshot/generations.go).

// ManifestName is the manifest file written alongside the shard files.
const ManifestName = "manifest.json"

// Manifest describes a saved engine directory. It records only what no
// shard file can say about itself; every shard file carries its own
// CRC-guarded snapshot.Header (algo, metric, dim, element kind, SQ8
// mode, rows), and Load holds each header to shard 0's. The manifest
// is not checksummed: each file's Rows is checked against that file's
// header before anything is sized from it, and the shard count, the
// partition bounds (prefix sums of Rows), the vector count and the file
// names (shardFileName) are derived, not stored.
type Manifest struct {
	// FormatVersion is the snapshot container version the shard files
	// were written with; Load accepts only snapshot.FormatVersion.
	FormatVersion int `json:"format_version"`
	// Dataset and Seed are provenance from Config.Meta; a loaded
	// engine's compaction builder rebuilds with Seed.
	Dataset string `json:"dataset,omitempty"`
	Seed    int64  `json:"seed"`
	// Generation is the base generation number (0 for a fresh build),
	// cross-checked against the gen-NNNNNN directory holding the
	// manifest.
	Generation int `json:"generation,omitempty"`
	// Ids is the global-position → external-ID table of a compacted
	// generation, strictly ascending with one entry per row; omitted
	// when positions are the IDs (the identity fast path).
	Ids []uint32 `json:"ids,omitempty"`
	// Files lists the per-shard snapshot files in shard order; file i
	// is named shardFileName(i).
	Files []ShardFile `json:"files"`
	// Header is not stored: Load fills it with the header every shard
	// file agrees on, its Rows set to the total over all shards.
	Header snapshot.Header `json:"-"`
}

// ShardFile is one per-shard snapshot file entry. RAM serving checks
// CRC32 (IEEE, over the whole file); paged serving skips whole-file
// checksums, so Rows is what catches a misplaced file there.
type ShardFile struct {
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
	return persistGeneration(dir, e.gen, e.meta)
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
func persistGeneration(root string, gen *generation, meta Meta) (err error) {
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
		Generation:    gen.num,
		Ids:           gen.ids,
	}
	for i, sh := range gen.shards {
		name := shardFileName(i)
		h, crc, err := snapshot.SaveFile(filepath.Join(gdir, name), sh.index, meta.Elem)
		if err != nil {
			return fmt.Errorf("engine: save shard %d: %w", i, err)
		}
		// A caller-supplied algo the shards contradict is a caller bug:
		// surface it here; the deferred cleanup drops the partial
		// generation.
		if i == 0 && meta.Algo != "" && meta.Algo != h.Algo {
			return fmt.Errorf("engine: save: Meta.Algo is %q but shards are %q", meta.Algo, h.Algo)
		}
		man.Files = append(man.Files, ShardFile{Rows: h.Rows, CRC32: crc})
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
// The returned manifest carries the provenance the writer recorded and,
// in Header, what the shard files hold. Shards are fully resident; use
// LoadWithOptions for the paged (beyond-RAM) serving modes.
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
// Every shard file's header must agree with shard 0's on algo, metric,
// dim, element kind and SQ8 mode, and its row count with the
// manifest's entry for the file; a directory that disagrees fails with
// snapshot.ErrCorrupt. A loaded engine accepts Upsert/Delete and carries
// the shard builder Compact rebuilds with, reconstructed from shard 0's
// header and the manifest's seed; a header no builder accepts fails the
// load. Compact additionally requires RAM serving.
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
	bounds, err := man.validate(genName, genNum)
	if err != nil {
		return nil, nil, err
	}
	workers := opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := make([]shard, len(man.Files))
	headers := make([]snapshot.Header, len(man.Files))
	err = fanOut(len(man.Files), workers, func(i int) (err error) {
		shards[i], headers[i], err = openShard(loadDir, man.Files[i], i, bounds[i], mode, opts.CachePages)
		return err
	})
	if err == nil {
		err = checkShards(man.Files, headers)
	}
	if err != nil {
		closePaged(shards)
		return nil, nil, err
	}
	h := headers[0]
	h.Rows = bounds[len(man.Files)]
	man.Header = h
	meta := Meta{Algo: h.Algo, Dataset: man.Dataset, Seed: man.Seed, Elem: h.Elem}
	// Reconstruct the shard builder so Compact can rebuild the base.
	builder, err := BuilderWithOpts(h.Algo, h.Metric, man.Seed, IndexOpts{
		Quantized: h.Quantized, Rerank: h.Rerank,
	})
	if err != nil {
		closePaged(shards)
		return nil, nil, fmt.Errorf("engine: load: %w", err)
	}
	// Sized only now: every header has vouched for its file's rows.
	gen := newGeneration(genNum, shards, man.Ids, h.Rows)
	e := newEngine(gen, workers, h.Dim, meta, builder)
	e.genDir = dir
	e.reqShards = len(shards)
	if p := shards[0].paged; p != nil {
		// Report the backend actually serving: a requested mmap may have
		// fallen back to positioned reads on platforms without mmap.
		e.serveMode = p.Backend()
	}
	return e, man, nil
}

// validate checks what the manifest alone can, before any shard file is
// read: its format version, its generation against genNum (parsed from
// genName, the directory holding it), a positive row count per file and
// the shape of the ID table. It returns the partition bounds, the
// prefix sums of the files' rows (len(Files)+1 entries).
func (m *Manifest) validate(genName string, genNum int) ([]int, error) {
	if m.FormatVersion != snapshot.FormatVersion {
		return nil, fmt.Errorf("engine: load manifest: %w: version %d, this build reads only version %d",
			snapshot.ErrVersion, m.FormatVersion, snapshot.FormatVersion)
	}
	if m.Generation != genNum {
		return nil, fmt.Errorf("engine: load manifest: %w: directory %s holds generation %d",
			snapshot.ErrCorrupt, genName, m.Generation)
	}
	if len(m.Files) == 0 {
		return nil, fmt.Errorf("engine: load manifest: %w: no shard files", snapshot.ErrCorrupt)
	}
	bounds := make([]int, 1, len(m.Files)+1)
	for i, f := range m.Files {
		if f.Rows < 1 {
			return nil, fmt.Errorf("engine: load manifest: %w: shard %d has %d rows", snapshot.ErrCorrupt, i, f.Rows)
		}
		bounds = append(bounds, bounds[i]+f.Rows)
	}
	if m.Ids != nil {
		if vectors := bounds[len(m.Files)]; len(m.Ids) != vectors {
			return nil, fmt.Errorf("engine: load manifest: %w: %d ids for %d rows", snapshot.ErrCorrupt, len(m.Ids), vectors)
		}
		for i := 1; i < len(m.Ids); i++ {
			if m.Ids[i] <= m.Ids[i-1] {
				return nil, fmt.Errorf("engine: load manifest: %w: ids not strictly ascending at index %d", snapshot.ErrCorrupt, i)
			}
		}
	}
	return bounds, nil
}

// checkShards holds each shard file's CRC-guarded header to its
// manifest entry's row count and to shard 0's header: one algo,
// metric, dim, element kind and SQ8 mode (presence of the SQ8 tier, and
// the rerank width stored beside it) across the set. A file from
// another save must fail the load, not rank one metric's distances
// among another's, panic on the first search of the wrong dim, or
// refuse writes and compactions in the wrong element kind.
func checkShards(files []ShardFile, headers []snapshot.Header) error {
	h0 := headers[0]
	for i, h := range headers {
		for _, c := range []struct {
			field, source string
			file, want    any
		}{
			{"rows", "manifest", h.Rows, files[i].Rows},
			{"algo", "shard 0", h.Algo, h0.Algo},
			{"metric", "shard 0", h.Metric, h0.Metric},
			{"dim", "shard 0", h.Dim, h0.Dim},
			{"elem", "shard 0", h.Elem, h0.Elem},
			{"quantized", "shard 0", h.Quantized, h0.Quantized},
			{"rerank", "shard 0", h.Rerank, h0.Rerank},
		} {
			if c.file != c.want {
				return fmt.Errorf("engine: load shard %d (%s): %w: file %s %v, %s says %v",
					i, shardFileName(i), snapshot.ErrCorrupt, c.field, c.file, c.source, c.want)
			}
		}
	}
	return nil
}

// openShard opens shard i, described by its manifest entry f and
// starting at global position base, in the given serving mode and
// returns it with its file's parsed header, which the caller checks
// (checkShards). The modes differ only in how the bytes arrive.
// ServeRAM reads the whole file, verifies the manifest's whole-file CRC,
// and decodes it with snapshot.Load. The paged modes open it with
// snapshot.OpenPagedFile, which walks the same sections but skips both
// the whole-file CRC and the blocks payload's: reading the block image
// up front is what paged serving exists to avoid, so serve-time record
// damage is handled defensively by the paged store. Both modes open
// every family. The returned shard's paged handle is nil in ServeRAM.
func openShard(dir string, f ShardFile, i, base int, mode string, cachePages int) (shard, snapshot.Header, error) {
	name := shardFileName(i)
	path := filepath.Join(dir, name)
	sh := shard{base: uint32(base)}
	var h snapshot.Header
	if mode == ServeRAM {
		data, err := os.ReadFile(path)
		if err != nil {
			return shard{}, h, fmt.Errorf("engine: load shard %d: %w", i, err)
		}
		if got := crc32.ChecksumIEEE(data); got != f.CRC32 {
			return shard{}, h, fmt.Errorf("engine: load shard %d (%s): %w: file CRC %08x, manifest says %08x",
				i, name, snapshot.ErrChecksum, got, f.CRC32)
		}
		if sh.index, h, err = snapshot.Load(data); err != nil {
			return shard{}, h, fmt.Errorf("engine: load shard %d (%s): %w", i, name, err)
		}
		return sh, h, nil
	}
	p, err := snapshot.OpenPagedFile(path, snapshot.PagedOptions{Backend: mode, CachePages: cachePages})
	if err != nil {
		return shard{}, h, fmt.Errorf("engine: load shard %d (%s): %w", i, name, err)
	}
	sh.index, sh.paged = p.Index(), p
	return sh, p.Header(), nil
}
