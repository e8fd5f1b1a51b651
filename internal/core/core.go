// Package core is the NDSEARCH system itself: it composes the reordered
// LUNCSR layout (static scheduling, §VI-A), the SearSSD device model
// (§IV), the dynamic scheduler (§VI-B) and the FPGA bitonic sorter into
// the processing model of Algorithm 1, and simulates the end-to-end
// execution of query batches from search traces, producing latency,
// throughput, execution breakdown, page/LUN access statistics, and
// energy inputs for every experiment in the paper.
package core

import (
	"fmt"
	"sort"
	"time"

	"ndsearch/internal/ann"
	"ndsearch/internal/dataset"
	"ndsearch/internal/ecc"
	"ndsearch/internal/ftl"
	"ndsearch/internal/graph"
	"ndsearch/internal/luncsr"
	"ndsearch/internal/reorder"
	"ndsearch/internal/sched"
	"ndsearch/internal/searssd"
	"ndsearch/internal/ssdsim"
	"ndsearch/internal/trace"
	"ndsearch/internal/vec"
)

// Breakdown category names (the Fig. 17 legend).
const (
	CatNANDRead   = "NAND read"
	CatMAC        = "MAC compute"
	CatBus        = "Channel bus"
	CatDRAM       = "DRAM access"
	CatCores      = "Embedded cores"
	CatAllocating = "Allocating"
	CatSSDIO      = "SSD I/O read"
	CatFPGASort   = "FPGA sort"
)

// SchedConfig toggles the paper's four optimisation techniques, matching
// the ablation labels of Fig. 16.
type SchedConfig struct {
	// Reorder selects the static-scheduling vertex ordering ("re").
	Reorder reorder.Method
	// MultiPlane enables multi-plane-aware mapping and plane-parallel
	// sensing within LUNs ("mp").
	MultiPlane bool
	// DynamicAlloc enables batch-wise dynamic allocating ("da").
	DynamicAlloc bool
	// Speculative enables speculative searching ("sp").
	Speculative bool
}

// FullSched enables everything (the shipping configuration).
func FullSched() SchedConfig {
	return SchedConfig{
		Reorder: reorder.DegreeAscendingBFS, MultiPlane: true,
		DynamicAlloc: true, Speculative: true,
	}
}

// BareSched disables every optimisation (Fig. 16 "Bare").
func BareSched() SchedConfig {
	return SchedConfig{Reorder: reorder.Identity}
}

// Label renders the ablation label used in Fig. 16.
func (s SchedConfig) Label() string {
	if s == BareSched() {
		return "Bare"
	}
	l := ""
	if s.Reorder == reorder.DegreeAscendingBFS {
		l = "re"
	} else if s.Reorder == reorder.RandomBFS {
		l = "ranbfs"
	}
	if s.MultiPlane {
		l += "+mp"
	}
	if s.DynamicAlloc {
		l += "+da"
	}
	if s.Speculative {
		l += "+sp"
	}
	if l == "" {
		l = "Bare"
	}
	return l
}

// Config assembles a full system configuration.
type Config struct {
	Params searssd.Params
	Sched  SchedConfig
	// Seed drives the random-BFS ordering when selected.
	Seed int64
	// Injector, when set, replaces the deterministic expected-ECC model
	// with per-page fault injection (Fig. 18).
	Injector *ecc.Injector
	// FTL, when set, charges block refreshes triggered by read disturb.
	FTL *ftl.FTL
}

// DefaultConfig returns the full system with paper parameters.
func DefaultConfig() Config {
	return Config{Params: searssd.DefaultParams(), Sched: FullSched(), Seed: 1}
}

// specBudget is the Pref buffer's per-query prefetch: at most this many
// second-order candidates per query per round.
const specBudget = 8

// System is a built NDSEARCH instance over one dataset's graph.
type System struct {
	cfg     Config
	profile dataset.Profile
	layout  *luncsr.LUNCSR
	// perm maps original vertex IDs (as they appear in traces) to
	// placed IDs.
	perm []uint32
}

// NewSystem lays a proximity graph out on SearSSD under the configured
// static schedule. The graph is the algorithm's base layer; profile
// supplies dimensionality and element type.
func NewSystem(g *graph.Graph, profile dataset.Profile, cfg Config) (*System, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if g.Len() == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	method := cfg.Sched.Reorder
	if method == "" {
		method = reorder.Identity
	}
	perm, err := reorder.Order(g, method, cfg.Seed)
	if err != nil {
		return nil, err
	}
	placed, err := g.Relabel(perm)
	if err != nil {
		return nil, err
	}
	vertexBytes := vec.StoredBytes(profile.Elem, profile.Dim)
	layout, err := luncsr.Build(placed.ToCSR(), cfg.Params.Geometry, vertexBytes)
	if err != nil {
		return nil, err
	}
	if cfg.FTL != nil {
		layout.AttachFTL(cfg.FTL)
	}
	return &System{cfg: cfg, profile: profile, layout: layout, perm: perm}, nil
}

// NewSystemFromIndex lays out an ANNS index's base-layer adjacency,
// copied out of its NodeStore by ann.CopyGraph — the lists search
// expands, so a resident index and the same index served paged from a
// snapshot get the same layout, and a flat family (exact, ivfpq) an
// edgeless one.
func NewSystemFromIndex(idx ann.Index, profile dataset.Profile, cfg Config) (*System, error) {
	return NewSystem(ann.CopyGraph(idx.Store()), profile, cfg)
}

// Layout exposes the LUNCSR placement (read-only use).
func (s *System) Layout() *luncsr.LUNCSR { return s.layout }

// Result is the outcome of simulating one batch.
type Result struct {
	BatchSize int
	Latency   time.Duration
	QPS       float64
	Breakdown ssdsim.Breakdown
	// PageReads counts page senses including speculative ones.
	PageReads int
	// BasePageReads counts only non-speculative page senses (the
	// numerator of the Fig. 14 page-access ratio).
	BasePageReads int
	// TraceLength is the total computed-vertex count of the batch.
	TraceLength int
	// PageAccessRatio is PageReads (non-speculative) / TraceLength —
	// the Fig. 14 metric.
	PageAccessRatio float64
	// LUNsTouchedFrac is the fraction of vertex-storing LUNs accessed by
	// the batch (Fig. 4b counts "LUNs that store the vertices").
	LUNsTouchedFrac float64
	// SpecComputed / SpecHits report speculative searching (Fig. 15).
	SpecComputed, SpecHits int
	// SoftDecodes counts soft-decision LDPC fallbacks (Fig. 18).
	SoftDecodes int
	// Refreshes counts FTL block refreshes triggered during the batch.
	Refreshes int
	// Iterations is the number of synchronised batch rounds executed.
	Iterations int
}

// SimulateBatch runs the Algorithm 1 processing model over a traced
// batch and returns timing and statistics. The trace's vertex IDs are in
// the original graph numbering; the system translates them through the
// static schedule's permutation. A batch beyond the device's buffering
// capacity runs as MaxHWBatch-sized hardware batches back to back
// (§VII-B "Batch size"): latency and counters add up, Iterations is the
// longest hardware batch's and LUNsTouchedFrac the mean of theirs.
func (s *System) SimulateBatch(batch *trace.Batch) (*Result, error) {
	n := len(batch.Queries)
	if n == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	res := &Result{BatchSize: n, Breakdown: ssdsim.Breakdown{}}
	size := min(n, s.cfg.Params.MaxHWBatch)
	var lunFracs float64
	hwBatches := 0
	for lo := 0; lo < n; lo += size {
		lunFracs += s.runHWBatch(&trace.Batch{Queries: batch.Queries[lo:min(lo+size, n)]}, res)
		hwBatches++
	}
	if res.Latency > 0 {
		res.QPS = float64(res.BatchSize) / res.Latency.Seconds()
	}
	if res.TraceLength > 0 {
		res.PageAccessRatio = float64(res.BasePageReads) / float64(res.TraceLength)
	}
	res.LUNsTouchedFrac = lunFracs / float64(hwBatches)
	return res, nil
}

// runHWBatch runs one hardware batch, adds its latency, breakdown and
// counters to res, and returns the fraction of vertex-storing LUNs it
// touched.
func (s *System) runHWBatch(hw *trace.Batch, res *Result) float64 {
	p := s.cfg.Params
	lunsTouched := map[int]bool{}

	// Host upload of the query batch (1 in Fig. 5a).
	upload := p.HostUploadCost(len(hw.Queries), s.profile.Dim, s.profile.Elem)
	res.Breakdown.Add(CatSSDIO, upload)
	latency := upload

	rounds := hw.MaxIterations()
	res.Iterations = max(res.Iterations, rounds)
	var spec []sched.QueryIter
	var resultEntries int
	// visited tracks, per query, every vertex already computed against;
	// the Pref Unit never re-prefetches visited candidates (§VI-B2).
	visited := make([]map[uint32]bool, len(hw.Queries))
	for i := range visited {
		visited[i] = map[uint32]bool{}
	}

	for r := 0; r < rounds; r++ {
		iters := s.roundWork(hw, r)
		if len(iters) == 0 {
			continue
		}
		for _, qi := range iters {
			for _, v := range qi.Neighbors {
				visited[qi.Query][v] = true
			}
		}
		activeQueries := len(iters)
		var totalNeighbors int
		for _, qi := range iters {
			totalNeighbors += len(qi.Neighbors)
			resultEntries += len(qi.Neighbors)
			res.TraceLength += len(qi.Neighbors)
		}

		// Speculation issued last round removes covered work from this
		// round's critical path.
		work, hits := sched.MatchSpeculation(spec, iters)
		res.SpecHits += hits

		// Allocating stage (Vgenerator + Allocator). With speculation the
		// allocating of round r overlapped round r-1's searching, so only
		// round 0 pays it on the critical path.
		vgen := p.VgenCost(activeQueries, totalNeighbors)
		alloc := sched.Allocate(s.layout, work, s.cfg.Sched.DynamicAlloc)
		allocTime := p.AllocCost(alloc.Tasks)
		if !s.cfg.Sched.Speculative || r == 0 {
			latency += vgen + allocTime
		}
		res.Breakdown.Add(CatDRAM, vgen)
		res.Breakdown.Add(CatAllocating, allocTime)

		// Searching stage: plane-affine page senses + MAC computation,
		// output readout on the channel buses.
		search, stats := s.searchStage(alloc)
		latency += search
		res.BasePageReads += stats.senses
		res.PageReads += stats.senses
		res.SoftDecodes += stats.softDecodes
		res.Refreshes += stats.refreshes
		for l := range alloc.ByLUN {
			lunsTouched[l] = true
		}
		res.Breakdown.Add(CatNANDRead, stats.nand)
		res.Breakdown.Add(CatMAC, stats.mac)
		res.Breakdown.Add(CatBus, stats.bus)
		res.Breakdown.Add(CatCores, stats.softCore)

		// Gathering stage: property-table updates on the embedded cores,
		// plus the DRAM traffic of writing the round's computed distances
		// into the result lists and maintaining the LUNCSR arrays.
		dramUpdate := time.Duration(float64(p.OutputBytes(totalNeighbors)) /
			p.DRAMBytesPerSec * float64(time.Second))
		coreWork := p.GatherCost(activeQueries)
		gather := coreWork + dramUpdate
		res.Breakdown.Add(CatDRAM, dramUpdate)

		// Speculative searching for the next round runs on the (now idle)
		// LUN accelerators while the cores gather.
		spec = nil
		if s.cfg.Sched.Speculative && r+1 < rounds {
			spec = s.speculate(iters, visited, gather, res)
		}
		latency += gather
		res.Breakdown.Add(CatCores, coreWork)
	}

	// Sorting stage: ship result lists to the FPGA and run the bitonic
	// kernel (5 in Fig. 5a). The per-query result list is bounded by the
	// candidates it produced.
	ship := p.ResultShipCost(resultEntries)
	sort := p.SortCost(resultEntries)
	latency += ship + sort
	res.Breakdown.Add(CatSSDIO, ship)
	res.Breakdown.Add(CatFPGASort, sort)
	res.Latency += latency
	return float64(len(lunsTouched)) / float64(s.layout.PopulatedLUNs())
}

// speculate runs the Pref Unit over round iters' second-order
// candidates and returns the speculation issued for the next round.
// §VI-B2: speculation that would outlive the overlap window is forcibly
// terminated, so the budget halves until the speculative stage fits and
// its latency is entirely hidden under the gathering stage. The
// candidates are ranked once; each budget keeps a prefix. If even a
// budget of one cannot hide under gather, the round proceeds without
// speculation and speculate returns nil.
func (s *System) speculate(iters []sched.QueryIter, visited []map[uint32]bool, gather time.Duration, res *Result) []sched.QueryIter {
	ranked := sched.Speculate(s.layout, iters, specBudget,
		func(q int, v uint32) bool { return visited[q][v] })
	for budget := specBudget; budget >= 1; budget /= 2 {
		spec := prefix(ranked, budget)
		alloc := sched.Allocate(s.layout, spec, s.cfg.Sched.DynamicAlloc)
		if s.stageEstimate(alloc) <= gather {
			stage, stats := s.searchStage(alloc)
			res.SpecComputed += alloc.Tasks
			res.PageReads += stats.senses
			res.Breakdown.Add(CatNANDRead, stage)
			return spec
		}
	}
	return nil
}

// prefix cuts each query's ranked speculation list to budget.
func prefix(ranked []sched.QueryIter, budget int) []sched.QueryIter {
	out := make([]sched.QueryIter, len(ranked))
	for i, qi := range ranked {
		out[i] = sched.QueryIter{Query: qi.Query, Neighbors: qi.Neighbors[:min(len(qi.Neighbors), budget)]}
	}
	return out
}

// roundWork extracts round r's work items with IDs translated to the
// placed numbering.
func (s *System) roundWork(batch *trace.Batch, r int) []sched.QueryIter {
	var out []sched.QueryIter
	for qi := range batch.Queries {
		q := &batch.Queries[qi]
		if r >= len(q.Iters) {
			continue
		}
		it := q.Iters[r]
		w := sched.QueryIter{Query: qi, Entry: s.translate(it.Entry)}
		w.Neighbors = make([]uint32, 0, len(it.Neighbors))
		for _, v := range it.Neighbors {
			w.Neighbors = append(w.Neighbors, s.translate(v))
		}
		out = append(out, w)
	}
	return out
}

func (s *System) translate(v uint32) uint32 {
	if int(v) < len(s.perm) {
		return s.perm[v]
	}
	return v
}

type stageStats struct {
	nand, mac, bus, softCore time.Duration
	softDecodes              int
	refreshes                int
	// senses counts actual page senses (page-buffer hits excluded).
	senses int
}

// stageEstimate sizes an allocation's stage duration using the
// deterministic expected-ECC cost, without touching the fault injector
// or FTL state. Used to truncate speculation to the overlap window.
func (s *System) stageEstimate(alloc sched.Allocation) time.Duration {
	p := s.cfg.Params
	planeTime := map[int]time.Duration{}
	var stage time.Duration
	for lun, jobs := range alloc.ByLUN {
		for _, job := range jobs {
			key := s.senseUnit(lun, job)
			planeTime[key] += p.PageSenseCost() + p.MACCost(len(job.Tasks), s.profile.Dim)
			if planeTime[key] > stage {
				stage = planeTime[key]
			}
		}
	}
	return stage
}

// searchStage computes the Searching-stage duration of one round: page
// jobs occupy their planes serially (or the whole LUN serially when
// multi-plane mapping is disabled), output entries occupy the channel
// buses, and the stage completes when the slowest resource drains.
func (s *System) searchStage(alloc sched.Allocation) (time.Duration, stageStats) {
	p := s.cfg.Params
	geo := p.Geometry
	var st stageStats

	planeTime := map[int]time.Duration{}
	chanBytes := map[int]int64{}
	// Visit LUNs in sorted order: the fault injector and FTL consume
	// stateful RNG/counters per page job, so map-iteration order would
	// otherwise make simulated latency vary run to run.
	luns := make([]int, 0, len(alloc.ByLUN))
	for lun := range alloc.ByLUN {
		luns = append(luns, lun)
	}
	sort.Ints(luns)
	for _, lun := range luns {
		for _, job := range alloc.ByLUN[lun] {
			// Without dynamic allocation the page buffer is flushed
			// between queries (§VII-B: pages "may be flushed and need to
			// be read from the NAND arrays again by another query
			// later"), so every page job pays its sense.
			st.senses++
			var sense time.Duration
			if s.cfg.Injector == nil {
				sense = p.PageSenseCost()
			} else {
				out := s.cfg.Injector.DecodePage(job.GlobalPlane)
				sense = p.Timing.ReadPage + out.Latency
				if out.SoftUsed {
					st.softDecodes++
					// Soft decoding pauses the iteration on the embedded
					// cores too.
					st.softCore += p.ECC.SoftLatency
				}
			}
			if s.cfg.FTL != nil {
				if refreshed, err := s.cfg.FTL.RecordRead(job.GlobalPlane, logicalBlockOf(s.layout, job)); err == nil && refreshed {
					sense += s.cfg.FTL.RefreshLatency()
					st.refreshes++
				}
			}
			mac := p.MACCost(len(job.Tasks), s.profile.Dim)
			planeTime[s.senseUnit(lun, job)] += sense + mac
			st.nand += sense
			st.mac += mac
			chanBytes[lun/geo.LUNsPerChannel()] += p.OutputBytes(len(job.Tasks))
		}
	}

	var stage time.Duration
	for _, t := range planeTime {
		if t > stage {
			stage = t
		}
	}
	for _, b := range chanBytes {
		t := p.Timing.BusTransfer(int(b))
		st.bus += t
		if t > stage {
			stage = t
		}
	}
	return stage, st
}

// senseUnit names the resource a page job occupies while it senses: its
// plane, or with multi-plane mapping disabled the whole LUN, whose planes
// then cannot sense concurrently.
func (s *System) senseUnit(lun int, job sched.PageJob) int {
	if !s.cfg.Sched.MultiPlane {
		return -1 - lun
	}
	return job.GlobalPlane
}

// logicalBlockOf recovers the logical block of a page job's first task
// for FTL read accounting.
func logicalBlockOf(l *luncsr.LUNCSR, job sched.PageJob) int {
	if len(job.Tasks) == 0 {
		return 0
	}
	return l.LogicalBlock(job.Tasks[0].Vertex)
}
