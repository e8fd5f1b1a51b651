// Package platform models the paper's baseline systems over the same
// search traces NDSEARCH consumes: the CPU baseline (2x Xeon Gold 6254,
// hnswlib/DiskANN style), CPU-T (terabyte DRAM, Fig. 21), the GPU
// baseline (Titan RTX, cuhnsw style with k-means sharding), the
// SmartSSD-only design of [47], and DeepStore's channel-level (DS-c) and
// chip-level (DS-cp) accelerators [58].
//
// All models are first-order throughput models over identical traces:
// the differentiating terms are where the data moves (host PCIe, private
// PCIe, channel bus, in-chip), at what granularity (page, vertex slice,
// output entry), and with how much parallelism (cores, shards, channels,
// chips, LUNs). Absolute QPS is calibrated only loosely; the reproduced
// quantities are the cross-platform ratios (DESIGN.md §5).
package platform

import (
	"fmt"
	"time"

	"ndsearch/internal/dataset"
	"ndsearch/internal/nand"
	"ndsearch/internal/ssdsim"
	"ndsearch/internal/trace"
)

// Workload describes the dataset context shared by all platforms.
type Workload struct {
	Profile dataset.Profile
	// MaxDegree is the graph's R (layout constant for footprints).
	MaxDegree int
}

// footprint returns the full-scale dataset size the real system would
// have to hold (capacity pressure comes from full-scale metadata, not
// from the scaled traversal graph).
func (w Workload) footprint() int64 {
	return w.Profile.FullScaleFootprint(w.MaxDegree)
}

// Result reports one platform's simulated batch execution.
type Result struct {
	Platform  string
	BatchSize int
	Latency   time.Duration
	QPS       float64
	Breakdown ssdsim.Breakdown
	// IOBytes is the data moved over the platform's external link.
	IOBytes int64
}

// Platform is a baseline system model.
type Platform interface {
	Name() string
	Simulate(batch *trace.Batch, w Workload) (*Result, error)
}

func batchStats(batch *trace.Batch) (accesses int, rounds int, perRound []roundStat) {
	rounds = batch.MaxIterations()
	perRound = make([]roundStat, rounds)
	for qi := range batch.Queries {
		q := &batch.Queries[qi]
		for r, it := range q.Iters {
			perRound[r].queries++
			perRound[r].accesses += len(it.Neighbors)
			accesses += len(it.Neighbors)
		}
	}
	return
}

type roundStat struct {
	queries  int
	accesses int
}

// ---- CPU -----------------------------------------------------------------

// CPUParams parameterise the host baseline.
type CPUParams struct {
	// DRAMBytes is main-memory capacity (24 GB in the paper's setup).
	DRAMBytes int64
	// PCIeBytesPerSec is the SSD link (PCIe 3.0 x16).
	PCIeBytesPerSec float64
	// FetchBytes is the IO granularity per missed vertex (a 4 KB sector,
	// the DiskANN on-disk layout unit).
	FetchBytes int
	// ComputePerAccess is the effective aggregate host cost per visited
	// vertex (distance + candidate-list bookkeeping + its share of the
	// final sort), calibrated so the Fig. 1 breakdown lands at ~70% SSD
	// I/O for billion-scale datasets.
	ComputePerAccess time.Duration
	// RoundTrip is the synchronous I/O issue latency paid once per
	// search round: with small batches the request stream cannot fill
	// the NVMe queue, which is why Fig. 2a's bandwidth utilisation only
	// saturates once the batch reaches ~1024.
	RoundTrip time.Duration
}

// DefaultCPUParams returns the calibrated host model.
func DefaultCPUParams() CPUParams {
	return CPUParams{
		DRAMBytes:        24 << 30,
		PCIeBytesPerSec:  15.4e9,
		FetchBytes:       4096,
		ComputePerAccess: 100 * time.Nanosecond,
		RoundTrip:        50 * time.Microsecond,
	}
}

// CPU is the host baseline.
type CPU struct {
	P CPUParams
	// Label overrides the platform name (CPU-T reuses this model).
	Label string
}

// NewCPU returns the standard host baseline.
func NewCPU() *CPU { return &CPU{P: DefaultCPUParams(), Label: "CPU"} }

// NewCPUT returns CPU-T: the same host with terabyte-class DRAM
// (Fig. 21) so every dataset becomes memory-resident.
func NewCPUT() *CPU {
	p := DefaultCPUParams()
	p.DRAMBytes = 1536 << 30
	// Terabyte DIMM configurations run the memory bus slower; the paper
	// still credits CPU-T with a ~5x win over the swapping CPU.
	p.ComputePerAccess += 10 * time.Nanosecond
	return &CPU{P: p, Label: "CPU-T"}
}

// Name implements Platform.
func (c *CPU) Name() string { return c.Label }

// Simulate implements Platform: misses stream vertices from the SSD at
// sector granularity over host PCIe; hits and all compute run on the
// cores.
func (c *CPU) Simulate(batch *trace.Batch, w Workload) (*Result, error) {
	accesses, rounds, _ := batchStats(batch)
	if accesses == 0 {
		return nil, fmt.Errorf("platform: empty batch")
	}
	res := &Result{Platform: c.Name(), BatchSize: len(batch.Queries), Breakdown: ssdsim.Breakdown{}}
	hit := hitRate(c.P.DRAMBytes, w.footprint())
	misses := float64(accesses) * (1 - hit)
	res.IOBytes = int64(misses * float64(c.P.FetchBytes))
	io := time.Duration(float64(res.IOBytes) / c.P.PCIeBytesPerSec * float64(time.Second))
	if misses > 0 {
		// Synchronous issue latency per round; amortised away only once
		// the batch keeps the NVMe queue full.
		io += time.Duration(rounds) * c.P.RoundTrip
	}
	compute := time.Duration(accesses) * c.P.ComputePerAccess
	res.Breakdown.Add("SSD I/O read", io)
	res.Breakdown.Add("Compute and sort", compute)
	res.Latency = io + compute
	res.QPS = qps(res.BatchSize, res.Latency)
	return res, nil
}

// hitRate is the steady-state DRAM/VRAM cache hit probability for a
// uniformly scattered access stream: capacity over footprint, capped at
// 1 (fully resident).
func hitRate(capacity, footprint int64) float64 {
	if footprint <= 0 || capacity >= footprint {
		return 1
	}
	return float64(capacity) / float64(footprint)
}

func qps(batch int, latency time.Duration) float64 {
	if latency <= 0 {
		return 0
	}
	return float64(batch) / latency.Seconds()
}

// ---- GPU -----------------------------------------------------------------

// GPUParams parameterise the GPU baseline.
type GPUParams struct {
	// VRAMBytes is device memory (24 GB Titan RTX).
	VRAMBytes int64
	// PCIeBytesPerSec is the host link used for shard loads.
	PCIeBytesPerSec float64
	// FetchBytes is the IO granularity per missed vertex.
	FetchBytes int
	// ShardLocality is the extra hit probability earned by k-means
	// sharding and query routing (§I approach (i)): queries are routed
	// to resident shards, so misses are far rarer than pure capacity
	// ratio predicts.
	ShardLocality float64
	// ComputePerAccess is the aggregate device cost per visited vertex;
	// thousands of CUDA cores make this small.
	ComputePerAccess time.Duration
	// KernelLaunch is the fixed per-round kernel overhead.
	KernelLaunch time.Duration
}

// DefaultGPUParams returns the calibrated Titan RTX model.
func DefaultGPUParams() GPUParams {
	return GPUParams{
		VRAMBytes:        24 << 30,
		PCIeBytesPerSec:  15.4e9,
		FetchBytes:       4096,
		ShardLocality:    0.55,
		ComputePerAccess: 35 * time.Nanosecond,
		KernelLaunch:     20 * time.Microsecond,
	}
}

// GPU is the cuhnsw-style baseline.
type GPU struct {
	P GPUParams
}

// NewGPU returns the GPU baseline.
func NewGPU() *GPU { return &GPU{P: DefaultGPUParams()} }

// Name implements Platform.
func (g *GPU) Name() string { return "GPU" }

// Simulate implements Platform.
func (g *GPU) Simulate(batch *trace.Batch, w Workload) (*Result, error) {
	accesses, rounds, _ := batchStats(batch)
	if accesses == 0 {
		return nil, fmt.Errorf("platform: empty batch")
	}
	res := &Result{Platform: g.Name(), BatchSize: len(batch.Queries), Breakdown: ssdsim.Breakdown{}}
	hit := hitRate(g.P.VRAMBytes, w.footprint())
	if hit < 1 {
		hit += (1 - hit) * g.P.ShardLocality
	}
	misses := float64(accesses) * (1 - hit)
	res.IOBytes = int64(misses * float64(g.P.FetchBytes))
	io := time.Duration(float64(res.IOBytes) / g.P.PCIeBytesPerSec * float64(time.Second))
	compute := time.Duration(accesses)*g.P.ComputePerAccess + time.Duration(rounds)*g.P.KernelLaunch
	res.Breakdown.Add("SSD I/O read", io)
	res.Breakdown.Add("Compute and sort", compute)
	res.Latency = io + compute
	res.QPS = qps(res.BatchSize, res.Latency)
	return res, nil
}

// ---- SmartSSD-only ---------------------------------------------------------

// SmartSSDParams parameterise the [47]-style computational storage
// baseline: an FPGA beside the SSD on a private PCIe 3.0 x4 link, no
// in-NAND logic.
type SmartSSDParams struct {
	// LinkBytesPerSec is the private SSD-to-FPGA PCIe link.
	LinkBytesPerSec float64
	// TransferBytesPerAccess is the data moved per visited vertex: the
	// full vertex slice (vector + neighbor IDs), ~32x what NDSEARCH's
	// filtered result entries need (§IV-A).
	TransferBytesPerAccess int
	// ComputePerAccess is the FPGA's aggregate distance+sort cost.
	ComputePerAccess time.Duration
}

// DefaultSmartSSDParams returns the calibrated model for a sift-shaped
// layout; TransferBytesPerAccess is overridden per workload.
func DefaultSmartSSDParams() SmartSSDParams {
	return SmartSSDParams{
		LinkBytesPerSec:  3.85e9,
		ComputePerAccess: 15 * time.Nanosecond,
	}
}

// SmartSSD is the SmartSSD-only baseline.
type SmartSSD struct {
	P SmartSSDParams
}

// NewSmartSSD returns the SmartSSD-only baseline.
func NewSmartSSD() *SmartSSD { return &SmartSSD{P: DefaultSmartSSDParams()} }

// Name implements Platform.
func (s *SmartSSD) Name() string { return "SmartSSD" }

// Simulate implements Platform.
func (s *SmartSSD) Simulate(batch *trace.Batch, w Workload) (*Result, error) {
	accesses, _, _ := batchStats(batch)
	if accesses == 0 {
		return nil, fmt.Errorf("platform: empty batch")
	}
	res := &Result{Platform: s.Name(), BatchSize: len(batch.Queries), Breakdown: ssdsim.Breakdown{}}
	per := s.P.TransferBytesPerAccess
	if per == 0 {
		per = int(w.Profile.VertexBytes(w.MaxDegree))
	}
	res.IOBytes = int64(accesses) * int64(per)
	io := time.Duration(float64(res.IOBytes) / s.P.LinkBytesPerSec * float64(time.Second))
	compute := time.Duration(accesses) * s.P.ComputePerAccess
	res.Breakdown.Add("SSD I/O read", io)
	res.Breakdown.Add("Compute and sort", compute)
	res.Latency = io + compute
	res.QPS = qps(res.BatchSize, res.Latency)
	return res, nil
}

// ---- DeepStore (DS-c and DS-cp) --------------------------------------------

// DeepStoreLevel selects the accelerator placement.
type DeepStoreLevel int

const (
	// ChannelLevel is DS-c: one accelerator per flash channel; page
	// buffers cross the shared channel bus to reach it.
	ChannelLevel DeepStoreLevel = iota
	// ChipLevel is DS-cp: one accelerator per flash chip; page buffers
	// cross the chip interface (~30 us external readout, §III).
	ChipLevel
)

// DeepStoreParams parameterise the DeepStore baselines.
type DeepStoreParams struct {
	Geometry nand.Geometry
	Timing   nand.Timing
	// ReadoutFixed is the fixed per-page external-readout overhead
	// (status poll + column change + command turnaround) paid to move
	// page-buffer content off the NAND die (§III).
	ReadoutFixed time.Duration
	// ComputePerAccess is the accelerator's per-vertex cost.
	ComputePerAccess time.Duration
	// GatherPerQuery is the controller's per-query round overhead.
	GatherPerQuery time.Duration
}

// DefaultDeepStoreParams returns the same flash array as SearSSD.
func DefaultDeepStoreParams() DeepStoreParams {
	return DeepStoreParams{
		Geometry:         nand.DefaultGeometry(),
		Timing:           nand.DefaultTiming(),
		ReadoutFixed:     2 * time.Microsecond,
		ComputePerAccess: 90 * time.Nanosecond,
		GatherPerQuery:   75 * time.Nanosecond,
	}
}

// DeepStore is the DS-c / DS-cp baseline.
type DeepStore struct {
	P     DeepStoreParams
	Level DeepStoreLevel
}

// NewDeepStore returns a DeepStore baseline at the given level.
func NewDeepStore(level DeepStoreLevel) *DeepStore {
	return &DeepStore{P: DefaultDeepStoreParams(), Level: level}
}

// Name implements Platform.
func (d *DeepStore) Name() string {
	if d.Level == ChannelLevel {
		return "DS-c"
	}
	return "DS-cp"
}

// Simulate implements Platform. DeepStore keeps the stock data layout
// (no reordering), so nearly every visited vertex costs its own page
// sense. Senses overlap across LUNs (standard multi-LUN reads) but the
// LUNs of a chip serialise their senses without multi-plane scheduling.
// Each sensed page then pays an external readout of the vertex slice —
// serialised on the chip interface for DS-cp and on the shared channel
// bus (4 chips contending) for DS-c, which is the design's bottleneck.
// DS-cp is granted dynamic allocating per §VII-B ("we actually implement
// dynamic allocating on DS-cp"), merging occasional same-page accesses.
func (d *DeepStore) Simulate(batch *trace.Batch, w Workload) (*Result, error) {
	accesses, _, perRound := batchStats(batch)
	if accesses == 0 {
		return nil, fmt.Errorf("platform: empty batch")
	}
	res := &Result{Platform: d.Name(), BatchSize: len(batch.Queries), Breakdown: ssdsim.Breakdown{}}
	geo := d.P.Geometry
	slice := int(w.Profile.VertexBytes(w.MaxDegree))
	readoutPorts := geo.Channels // DS-c: one port per channel bus
	if d.Level == ChipLevel {
		readoutPorts = geo.TotalChips() // DS-cp: per-chip interface
	}
	sharing := 1.0
	if d.Level == ChipLevel {
		sharing = 1.15
	}
	senseUnits := geo.TotalChips() * geo.LUNsPerChip() // LUN-parallel senses
	accels := readoutPorts
	perPageReadout := d.P.ReadoutFixed + d.P.Timing.BusTransfer(slice)

	var latency time.Duration
	var nandT, busT, computeT time.Duration
	for _, rs := range perRound {
		if rs.accesses == 0 {
			continue
		}
		pages := int(float64(rs.accesses)/sharing + 0.5)
		if pages < 1 {
			pages = 1
		}
		sense := time.Duration((pages+senseUnits-1)/senseUnits) * d.P.Timing.ReadPage
		readout := time.Duration((pages+readoutPorts-1)/readoutPorts) * perPageReadout
		// Sensing pipelines with readout: the slower phase dominates.
		pipe := sense
		if readout > pipe {
			pipe = readout
		}
		compute := time.Duration((rs.accesses+accels-1)/accels) * d.P.ComputePerAccess
		gather := time.Duration(rs.queries) * d.P.GatherPerQuery
		latency += pipe + compute + gather
		nandT += sense
		busT += readout
		computeT += compute + gather
		res.IOBytes += int64(pages) * int64(slice)
	}
	res.Breakdown.Add("NAND read", nandT)
	res.Breakdown.Add("Channel bus", busT)
	res.Breakdown.Add("Compute and sort", computeT)
	res.Latency = latency
	res.QPS = qps(res.BatchSize, res.Latency)
	return res, nil
}
