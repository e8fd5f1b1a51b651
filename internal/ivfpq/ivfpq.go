// Package ivfpq implements IVF-PQ, the quantization-based ANNS family
// the paper's discussion (§VIII) names as the generalisation target for
// NDSEARCH: an inverted-file coarse quantizer over k-means centroids
// with product-quantized residual codes and asymmetric distance
// computation (ADC). Unlike graph traversal, IVF-PQ's access pattern is
// a sequential scan of a few inverted lists — the memory-bound,
// bandwidth-limited behaviour §VIII argues NDSEARCH also addresses. The
// package provides construction, search with exact re-ranking, and the
// scan statistics the discussion experiment feeds to the bandwidth
// models.
package ivfpq

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ndsearch/internal/ann"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Config holds IVF-PQ construction and search parameters.
type Config struct {
	// NList is the number of coarse (inverted-list) centroids.
	NList int
	// NProbe is how many lists a search scans.
	NProbe int
	// Segments is the number of PQ sub-vectors (must divide dim).
	Segments int
	// CodeBits is the bits per PQ code (8 -> 256 centroids/segment).
	CodeBits int
	// Rerank is how many ADC candidates are re-ranked with exact
	// distances (0 disables re-ranking).
	Rerank int
	// KMeansIters bounds Lloyd iterations.
	KMeansIters int
	// Metric selects the distance function (L2 only; PQ's ADC tables
	// here are Euclidean, which is what the benchmark datasets use).
	Metric vec.Metric
	// Seed drives k-means initialisation.
	Seed int64
}

// DefaultConfig returns moderate IVF-PQ parameters for scaled corpora.
func DefaultConfig() Config {
	return Config{
		NList: 64, NProbe: 8, Segments: 8, CodeBits: 6,
		Rerank: 64, KMeansIters: 12, Metric: vec.L2, Seed: 1,
	}
}

// Validate rejects unusable configurations for a given dimensionality.
func (c Config) Validate(dim int) error {
	if c.NList < 1 || c.NProbe < 1 || c.NProbe > c.NList {
		return fmt.Errorf("ivfpq: bad list parameters nlist=%d nprobe=%d", c.NList, c.NProbe)
	}
	if c.Segments < 1 || dim%c.Segments != 0 {
		return fmt.Errorf("ivfpq: segments %d must divide dim %d", c.Segments, dim)
	}
	if c.CodeBits < 1 || c.CodeBits > 8 {
		return fmt.Errorf("ivfpq: code bits %d outside [1,8]", c.CodeBits)
	}
	if c.Metric != vec.L2 {
		return fmt.Errorf("ivfpq: only L2 is supported, got %v", c.Metric)
	}
	if c.Rerank < 0 || c.KMeansIters < 1 {
		return fmt.Errorf("ivfpq: bad rerank/iteration parameters")
	}
	return nil
}

// Posting is one inverted-list entry: the vector ID and its PQ code
// (Segments bytes). Exported so snapshots can serialise lists exactly.
type Posting struct {
	ID   uint32
	Code []uint8
}

// Index is a built IVF-PQ index. Centroids, codebooks and postings are
// resident; the raw corpus is read through a NodeStore only to re-rank
// the ADC shortlist exactly — a resident KernelStore when built or
// loaded into RAM, a snapshot's paged store when served from a file
// (DiskANN's split: codes in memory, a full vector read from its page
// only to re-rank).
type Index struct {
	cfg       Config
	store     ann.NodeStore
	dim       int
	segDim    int
	coarse    []vec.Vector   // NList centroids
	codebooks [][]vec.Vector // [segment][code] sub-centroids
	lists     [][]Posting
}

// Build trains the coarse quantizer and per-segment codebooks, then
// encodes every vector into its nearest list.
func Build(data []vec.Vector, cfg Config) (*Index, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ivfpq: empty dataset")
	}
	dim := len(data[0])
	if err := cfg.Validate(dim); err != nil {
		return nil, err
	}
	if cfg.NList > len(data) {
		cfg.NList = len(data)
		if cfg.NProbe > cfg.NList {
			cfg.NProbe = cfg.NList
		}
	}
	x := &Index{cfg: cfg, store: ann.FlatStore(cfg.Metric, data), dim: dim, segDim: dim / cfg.Segments}
	rng := rand.New(rand.NewSource(cfg.Seed))
	x.coarse = kMeans(data, cfg.NList, cfg.KMeansIters, rng)

	// Residuals against the assigned coarse centroid train the PQ.
	assign := make([]int, len(data))
	residuals := make([]vec.Vector, len(data))
	for i, v := range data {
		assign[i] = nearestCentroid(x.coarse, v)
		r := make(vec.Vector, dim)
		c := x.coarse[assign[i]]
		for d := 0; d < dim; d++ {
			r[d] = v[d] - c[d]
		}
		residuals[i] = r
	}
	k := 1 << cfg.CodeBits
	x.codebooks = make([][]vec.Vector, cfg.Segments)
	for s := 0; s < cfg.Segments; s++ {
		subs := make([]vec.Vector, len(residuals))
		for i, r := range residuals {
			subs[i] = r[s*x.segDim : (s+1)*x.segDim]
		}
		x.codebooks[s] = kMeans(subs, k, cfg.KMeansIters, rng)
	}
	x.lists = make([][]Posting, cfg.NList)
	for i := range data {
		code := make([]uint8, cfg.Segments)
		for s := 0; s < cfg.Segments; s++ {
			sub := residuals[i][s*x.segDim : (s+1)*x.segDim]
			code[s] = uint8(nearestCentroid(x.codebooks[s], sub))
		}
		x.lists[assign[i]] = append(x.lists[assign[i]], Posting{ID: uint32(i), Code: code})
	}
	return x, nil
}

// FromParts reassembles a built index from its serialized parts over
// the store holding its corpus rows — the snapshot path, resident or
// paged. No k-means training runs; searches on the result are
// byte-identical to the index the parts came from (centroid, codebook,
// and posting order are all preserved). All arguments are retained.
func FromParts(cfg Config, store ann.NodeStore, coarse []vec.Vector, codebooks [][]vec.Vector, lists [][]Posting) (*Index, error) {
	n, dim := store.Len(), store.Dim()
	if n == 0 {
		return nil, fmt.Errorf("ivfpq: empty store")
	}
	if err := cfg.Validate(dim); err != nil {
		return nil, err
	}
	if len(coarse) != cfg.NList || len(lists) != cfg.NList {
		return nil, fmt.Errorf("ivfpq: %d coarse centroids and %d lists for nlist %d",
			len(coarse), len(lists), cfg.NList)
	}
	for i, c := range coarse {
		if len(c) != dim {
			return nil, fmt.Errorf("ivfpq: coarse centroid %d has dim %d, corpus dim is %d", i, len(c), dim)
		}
	}
	if len(codebooks) != cfg.Segments {
		return nil, fmt.Errorf("ivfpq: %d codebooks for %d segments", len(codebooks), cfg.Segments)
	}
	segDim := dim / cfg.Segments
	maxCodes := 1 << cfg.CodeBits
	for s, book := range codebooks {
		if len(book) == 0 || len(book) > maxCodes {
			return nil, fmt.Errorf("ivfpq: codebook %d has %d centroids, want 1..%d", s, len(book), maxCodes)
		}
		for c, cent := range book {
			if len(cent) != segDim {
				return nil, fmt.Errorf("ivfpq: codebook %d centroid %d has dim %d, want %d", s, c, len(cent), segDim)
			}
		}
	}
	for li, list := range lists {
		for pi, post := range list {
			if int(post.ID) >= n {
				return nil, fmt.Errorf("ivfpq: list %d posting %d id %d out of range %d", li, pi, post.ID, n)
			}
			if len(post.Code) != cfg.Segments {
				return nil, fmt.Errorf("ivfpq: list %d posting %d has %d code bytes, want %d", li, pi, len(post.Code), cfg.Segments)
			}
			for s, code := range post.Code {
				if int(code) >= len(codebooks[s]) {
					return nil, fmt.Errorf("ivfpq: list %d posting %d segment %d code %d exceeds codebook size %d",
						li, pi, s, code, len(codebooks[s]))
				}
			}
		}
	}
	return &Index{
		cfg: cfg, store: store,
		dim: dim, segDim: segDim,
		coarse: coarse, codebooks: codebooks, lists: lists,
	}, nil
}

// kMeans runs Lloyd's algorithm with k-means++-style seeding (first
// centroid random, rest by farthest-point sampling on a sample).
func kMeans(points []vec.Vector, k, iters int, rng *rand.Rand) []vec.Vector {
	if k > len(points) {
		k = len(points)
	}
	dim := len(points[0])
	centroids := make([]vec.Vector, k)
	perm := rng.Perm(len(points))
	for i := 0; i < k; i++ {
		centroids[i] = points[perm[i]].Clone()
	}
	assign := make([]int, len(points))
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			c := nearestCentroid(centroids, p)
			if c != assign[i] {
				assign[i] = c
				changed = true
			}
		}
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, p := range points {
			c := assign[i]
			counts[c]++
			vec.AccumulateF64(sums[c], p)
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				centroids[c] = points[rng.Intn(len(points))].Clone()
				continue
			}
			for d := 0; d < dim; d++ {
				centroids[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
		}
		if !changed && it > 0 {
			break
		}
	}
	return centroids
}

func nearestCentroid(centroids []vec.Vector, p vec.Vector) int {
	best, bestD := 0, float32(math.MaxFloat32)
	for i, c := range centroids {
		if d := vec.L2Squared(c, p); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Search returns the approximate top-k via ADC over the probed lists,
// optionally re-ranked with exact distances.
func (x *Index) Search(query vec.Vector, k int) []ann.Neighbor {
	return x.SearchFilter(query, k, nil)
}

// SearchFilter is Search over the postings skip does not reject:
// skipped postings are dropped before ADC scoring, so they neither
// occupy the re-rank shortlist nor reach the results.
func (x *Index) SearchFilter(query vec.Vector, k int, skip func(id uint32) bool) []ann.Neighbor {
	res, _, _ := x.search(query, k, skip)
	return res
}

// ScanStats reports the work one query performed — the quantities the
// §VIII bandwidth analysis needs.
type ScanStats struct {
	// ListsProbed is the number of inverted lists scanned.
	ListsProbed int
	// CodesScanned is the number of PQ codes ADC-evaluated.
	CodesScanned int
	// BytesStreamed is the at-rest bytes of the scanned postings
	// (id + code per posting).
	BytesStreamed int64
	// Reranked is the number of exact re-rank distance computations.
	Reranked int
}

// CodeBytes returns the stored size of one posting.
func (x *Index) CodeBytes() int { return 4 + x.cfg.Segments }

// SearchStats is Search plus scan statistics.
func (x *Index) SearchStats(query vec.Vector, k int) ([]ann.Neighbor, ScanStats) {
	res, st, _ := x.search(query, k, nil)
	return res, st
}

// search is the one search body: the top-k, the scan statistics, and
// the probed lists, nearest first (SearchTraced's trace).
func (x *Index) search(query vec.Vector, k int, skip func(id uint32) bool) ([]ann.Neighbor, ScanStats, []int) {
	var st ScanStats
	// The prepared query evaluates both the coarse ranking and the
	// exact re-rank with the query preprocessed once.
	pq := x.store.PrepareExact(query)
	// ADC over probed lists with per-list lookup tables on the residual.
	var cands []ann.Neighbor
	probed := x.probed(&pq)
	for _, li := range probed {
		st.ListsProbed++
		residual := make(vec.Vector, x.dim)
		for d := 0; d < x.dim; d++ {
			residual[d] = query[d] - x.coarse[li][d]
		}
		tables := x.adcTables(residual)
		for _, e := range x.lists[li] {
			if skip != nil && skip(e.ID) {
				continue
			}
			cands = append(cands, ann.Neighbor{ID: e.ID, Dist: vec.ADCSum(tables, e.Code)})
			st.CodesScanned++
		}
		st.BytesStreamed += int64(len(x.lists[li])) * int64(x.CodeBytes())
	}
	ann.SortNeighbors(cands)
	// Exact re-rank of the ADC shortlist. The tail beyond the shortlist
	// keeps its ADC-estimated distances and is re-merged with the
	// re-ranked head, so the search still returns min(k, candidates)
	// results when Rerank < k instead of truncating to the shortlist.
	if x.cfg.Rerank > 0 {
		top := x.cfg.Rerank
		if top > len(cands) {
			top = len(cands)
		}
		for i := range cands[:top] {
			cands[i].Dist = x.store.DistExact(pq, cands[i].ID)
			st.Reranked++
		}
		// Re-sort the full list: exact head distances and ADC tail
		// estimates share the ascending (distance, ID) order the ann
		// package's Validate enforces.
		ann.SortNeighbors(cands)
	}
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands, st, probed
}

// probed ranks the coarse centroids by distance to the prepared query
// and returns the NProbe nearest lists, nearest first: the lists search
// scans (and returns for SearchTraced's trace).
func (x *Index) probed(pq *vec.PreparedQuery) []int {
	type cd struct {
		list int
		dist float32
	}
	cds := make([]cd, len(x.coarse))
	for i, c := range x.coarse {
		cds[i] = cd{list: i, dist: pq.DistanceTo(c)}
	}
	sort.Slice(cds, func(i, j int) bool { return cds[i].dist < cds[j].dist })
	lists := make([]int, min(x.cfg.NProbe, len(cds)))
	for p := range lists {
		lists[p] = cds[p].list
	}
	return lists
}

// SearchTraced returns the search results and a single-iteration trace
// covering the probed postings — the degenerate "graph" an inverted-list
// scan induces, mirroring ann.Exact's flat-scan trace. It completes the
// ann.Index interface so IVF-PQ can serve as an engine shard family.
func (x *Index) SearchTraced(query vec.Vector, k int) ([]ann.Neighbor, trace.Query) {
	res, _, probed := x.search(query, k, nil)
	it := trace.Iter{}
	for _, li := range probed {
		for _, e := range x.lists[li] {
			it.Neighbors = append(it.Neighbors, e.ID)
		}
	}
	if len(res) > 0 {
		it.Entry = res[0].ID
	}
	return res, trace.Query{Iters: []trace.Iter{it}}
}

// Len returns the number of indexed vectors.
func (x *Index) Len() int { return x.store.Len() }

// NLists returns the coarse list count.
func (x *Index) NLists() int { return len(x.lists) }

// ListLen returns the posting count of list i.
func (x *Index) ListLen(i int) int { return len(x.lists[i]) }

// Params returns the effective configuration of the built index (NList
// and NProbe after any clamping to the corpus size).
func (x *Index) Params() Config { return x.cfg }

// Metric returns the distance metric the index searches under.
func (x *Index) Metric() vec.Metric { return x.cfg.Metric }

// Store returns the store the exact re-rank reads corpus rows from.
func (x *Index) Store() ann.NodeStore { return x.store }

// Coarse returns the coarse centroids. Owned by the index.
func (x *Index) Coarse() []vec.Vector { return x.coarse }

// Codebooks returns the per-segment PQ codebooks. Owned by the index.
func (x *Index) Codebooks() [][]vec.Vector { return x.codebooks }

// Lists returns the inverted posting lists. Owned by the index.
func (x *Index) Lists() [][]Posting { return x.lists }

// SetNProbe adjusts the probe width.
func (x *Index) SetNProbe(n int) {
	if n >= 1 && n <= len(x.lists) {
		x.cfg.NProbe = n
	}
}

// adcTables precomputes per-segment distance lookup tables for a
// residual query.
func (x *Index) adcTables(residual vec.Vector) [][]float32 {
	tables := make([][]float32, x.cfg.Segments)
	for s := 0; s < x.cfg.Segments; s++ {
		sub := residual[s*x.segDim : (s+1)*x.segDim]
		tab := make([]float32, len(x.codebooks[s]))
		for c, cent := range x.codebooks[s] {
			tab[c] = vec.L2Squared(sub, cent)
		}
		tables[s] = tab
	}
	return tables
}
