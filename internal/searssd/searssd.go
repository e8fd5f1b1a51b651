// Package searssd models the SearSSD device of §IV: the Vgenerator's
// three-stage fetch pipeline, the Allocator's dispatch and address
// generation, the SiN engines' LUN-level accelerators (page sense +
// plane-level ECC + MAC-group distance computation + output-buffer
// readout), the internal DRAM holding the non-vertex LUNCSR arrays, the
// embedded cores' per-query Gathering updates, and the links to the host
// and the bitonic-sort FPGA.
package searssd

import (
	"fmt"
	"time"

	"ndsearch/internal/bitonic"
	"ndsearch/internal/ecc"
	"ndsearch/internal/nand"
	"ndsearch/internal/vec"
)

// Params collects every timing constant of the device model. Defaults
// are calibrated in DESIGN.md §5.
type Params struct {
	Geometry nand.Geometry
	Timing   nand.Timing
	ECC      ecc.Model
	MAC      vec.MACModel
	FPGA     bitonic.FPGAModel

	// DRAMBytesPerSec is the SSD-internal DRAM bandwidth serving the
	// LUNCSR offset/neighbor/LUN/BLK arrays and the query property table.
	DRAMBytesPerSec float64
	// DRAMLatency is the per-access DRAM latency.
	DRAMLatency time.Duration
	// EmbeddedCores is the SSD controller core count (2-4 in §II-B).
	EmbeddedCores int
	// CoreOpLatency is the per-query property-table update cost on an
	// embedded core during the Gathering stage.
	CoreOpLatency time.Duration
	// VgenClockHz is the Vgenerator pipeline clock; the OFS/NBR/LUN
	// fetchers are pipelined, so per-element throughput is one cycle.
	VgenClockHz float64
	// AllocPerTask is the Allocator's dispatch + address-generation cost
	// per (query, neighbor) task.
	AllocPerTask time.Duration
	// HostLinkBytesPerSec is the host PCIe link feeding queries in.
	HostLinkBytesPerSec float64
	// FPGALinkBytesPerSec is the private PCIe 3.0 x4 link to the FPGA.
	FPGALinkBytesPerSec float64
	// ResultEntryBytes is the wire size of one result-list entry
	// (query id + candidate id + scalar distance).
	ResultEntryBytes int
	// MaxHWBatch is the largest batch the device buffers can hold at
	// once; larger host batches split into sub-batches processed
	// serially (§VII-B "Batch size": speedup decreases once the batch
	// exceeds the power-budget-limited buffering, at 4096 in Fig. 19).
	MaxHWBatch int
}

// DefaultParams returns the paper-calibrated configuration.
func DefaultParams() Params {
	return Params{
		Geometry:            nand.DefaultGeometry(),
		Timing:              nand.DefaultTiming(),
		ECC:                 ecc.DefaultModel(),
		MAC:                 vec.DefaultMACModel(),
		FPGA:                bitonic.DefaultFPGAModel(),
		DRAMBytesPerSec:     12.8e9, // one DDR4-1600 x64 channel
		DRAMLatency:         100 * time.Nanosecond,
		EmbeddedCores:       4,
		CoreOpLatency:       300 * time.Nanosecond,
		VgenClockHz:         800e6,
		AllocPerTask:        5 * time.Nanosecond,
		HostLinkBytesPerSec: 15.4e9,
		FPGALinkBytesPerSec: 3.85e9,
		ResultEntryBytes:    12,
		MaxHWBatch:          2048,
	}
}

// Validate rejects inconsistent parameter sets.
func (p Params) Validate() error {
	if err := p.Geometry.Validate(); err != nil {
		return err
	}
	if err := p.Timing.Validate(); err != nil {
		return err
	}
	if err := p.ECC.Validate(); err != nil {
		return err
	}
	if err := p.FPGA.Validate(); err != nil {
		return err
	}
	if p.DRAMBytesPerSec <= 0 || p.HostLinkBytesPerSec <= 0 || p.FPGALinkBytesPerSec <= 0 {
		return fmt.Errorf("searssd: non-positive bandwidth parameter")
	}
	if p.EmbeddedCores < 1 {
		return fmt.Errorf("searssd: need at least one embedded core")
	}
	if p.ResultEntryBytes < 1 {
		return fmt.Errorf("searssd: non-positive result entry size")
	}
	if p.MaxHWBatch < 1 {
		return fmt.Errorf("searssd: MaxHWBatch must be >= 1")
	}
	return nil
}

// VgenCost returns the Vgenerator time to fetch the graph metadata of
// one iteration: for each query, the entry's offset, neighbor IDs and
// LUN IDs stream through the three-stage pipeline, each element paying
// one pipelined stage plus its share of DRAM bandwidth.
func (p Params) VgenCost(queries, totalNeighbors int) time.Duration {
	if queries <= 0 {
		return 0
	}
	// Three fetch streams per neighbor: neighbor ID (4 B), LUN ID (2 B),
	// BLK ID (2 B); one offset pair (16 B) per query.
	bytes := int64(totalNeighbors)*8 + int64(queries)*16
	dram := time.Duration(float64(bytes) / p.DRAMBytesPerSec * float64(time.Second))
	pipe := time.Duration(float64(totalNeighbors+queries) / p.VgenClockHz * float64(time.Second))
	// The pipeline and DRAM stream overlap; the slower one dominates,
	// plus one DRAM latency to prime the pipeline.
	if dram > pipe {
		return dram + p.DRAMLatency
	}
	return pipe + p.DRAMLatency
}

// AllocCost returns the Allocator time to dispatch and address-generate
// the given task count.
func (p Params) AllocCost(tasks int) time.Duration {
	if tasks <= 0 {
		return 0
	}
	return time.Duration(tasks) * p.AllocPerTask
}

// PageSenseCost returns the in-plane time for one page sense including
// expected hard-decision ECC (deterministic expectation; fault-injected
// runs use an ecc.Injector instead).
func (p Params) PageSenseCost() time.Duration {
	return p.Timing.ReadPage + p.ECC.ExpectedLatency()
}

// MACCost returns the MAC-group time to compute n distances of the given
// dimensionality within one plane's accelerator.
func (p Params) MACCost(n, dim int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(n) * time.Duration(p.MAC.SecondsPerDistance(dim)*float64(time.Second))
}

// OutputBytes returns the channel-bus payload for n computed distances
// (the <SearchPage> flow transfers output buffers, not page buffers).
func (p Params) OutputBytes(n int) int64 {
	return int64(n) * int64(p.ResultEntryBytes)
}

// GatherCost returns the embedded-core time for the Gathering stage:
// updating the query property table for each active query, spread over
// the cores.
func (p Params) GatherCost(queries int) time.Duration {
	if queries <= 0 {
		return 0
	}
	perCore := (queries + p.EmbeddedCores - 1) / p.EmbeddedCores
	return time.Duration(perCore) * p.CoreOpLatency
}

// HostUploadCost returns the PCIe time to ship a batch of queries (id +
// feature vector) into the device.
func (p Params) HostUploadCost(batch, dim int, elem vec.ElemKind) time.Duration {
	bytes := int64(batch) * (8 + int64(vec.StoredBytes(elem, dim)))
	return time.Duration(float64(bytes) / p.HostLinkBytesPerSec * float64(time.Second))
}

// ResultShipCost returns the private-link time to move result lists to
// the FPGA and the top-k back out, given total result entries.
func (p Params) ResultShipCost(entries int) time.Duration {
	bytes := p.OutputBytes(entries)
	return time.Duration(float64(bytes) / p.FPGALinkBytesPerSec * float64(time.Second))
}

// SortCost returns the FPGA bitonic-sort latency for a batch's result
// lists.
func (p Params) SortCost(entries int) time.Duration {
	return time.Duration(p.FPGA.SortLatency(entries) * float64(time.Second))
}
