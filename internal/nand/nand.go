// Package nand models the NAND flash organisation of SearSSD (§II-B,
// §IV): the channel/chip/LUN/plane/block/page hierarchy, physical
// addressing, the timing parameters of page reads and bus transfers, and
// the multi-plane addressing restrictions (§VI-A2).
package nand

import (
	"fmt"
	"time"
)

// Geometry describes the flash array hierarchy. The paper's SearSSD SiN
// region: 32 channels x 4 chips x 4 planes x 512 blocks x 128 pages of
// 16 KB, two planes per LUN, 512 GB total, 256 LUNs.
type Geometry struct {
	Channels        int
	ChipsPerChannel int
	PlanesPerChip   int
	PlanesPerLUN    int
	BlocksPerPlane  int
	PagesPerBlock   int
	PageBytes       int
}

// DefaultGeometry returns the paper's SiN configuration (§IV-C).
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:        32,
		ChipsPerChannel: 4,
		PlanesPerChip:   4,
		PlanesPerLUN:    2,
		BlocksPerPlane:  512,
		PagesPerBlock:   128,
		PageBytes:       16 * 1024,
	}
}

// ScaledGeometry returns a proportionally scaled-down array for the
// scaled datasets the experiments traverse: the parallelism structure is
// identical to the paper's (32 channels x 4 chips x 4 planes, 2 planes
// per LUN, 256 LUNs) but pages are 4 KB (still holding the largest
// benchmark vertex, fashion-mnist's 3136 B) and planes hold 64 x 32
// pages,
// so a 10-50 K vertex corpus spreads over thousands of pages and the
// page/LUN locality phenomena of Figs. 4/14/15 appear at test scale.
func ScaledGeometry() Geometry {
	return Geometry{
		Channels:        32,
		ChipsPerChannel: 4,
		PlanesPerChip:   4,
		PlanesPerLUN:    2,
		BlocksPerPlane:  64,
		PagesPerBlock:   32,
		PageBytes:       4 * 1024,
	}
}

// Validate rejects inconsistent geometries.
func (g Geometry) Validate() error {
	switch {
	case g.Channels < 1, g.ChipsPerChannel < 1, g.PlanesPerChip < 1,
		g.BlocksPerPlane < 1, g.PagesPerBlock < 1, g.PageBytes < 1:
		return fmt.Errorf("nand: all geometry fields must be positive: %+v", g)
	case g.PlanesPerLUN < 1 || g.PlanesPerChip%g.PlanesPerLUN != 0:
		return fmt.Errorf("nand: PlanesPerLUN %d must divide PlanesPerChip %d",
			g.PlanesPerLUN, g.PlanesPerChip)
	}
	return nil
}

// LUNsPerChip returns the LUN count per flash chip.
func (g Geometry) LUNsPerChip() int { return g.PlanesPerChip / g.PlanesPerLUN }

// LUNsPerChannel returns the LUN count per channel.
func (g Geometry) LUNsPerChannel() int { return g.ChipsPerChannel * g.LUNsPerChip() }

// TotalChips returns the chip count.
func (g Geometry) TotalChips() int { return g.Channels * g.ChipsPerChannel }

// TotalLUNs returns the LUN count of the array.
func (g Geometry) TotalLUNs() int { return g.Channels * g.LUNsPerChannel() }

// TotalPlanes returns the plane count of the array.
func (g Geometry) TotalPlanes() int { return g.TotalChips() * g.PlanesPerChip }

// PlaneBytes returns the capacity of one plane.
func (g Geometry) PlaneBytes() int64 {
	return int64(g.BlocksPerPlane) * int64(g.PagesPerBlock) * int64(g.PageBytes)
}

// CapacityBytes returns the array capacity.
func (g Geometry) CapacityBytes() int64 {
	return g.PlaneBytes() * int64(g.TotalPlanes())
}

// PagesPerPlane returns the page count of one plane.
func (g Geometry) PagesPerPlane() int { return g.BlocksPerPlane * g.PagesPerBlock }

// Address is a full physical NAND address. Row address = LUN | plane |
// block | page; column address selects bytes within the page (§II-B1).
type Address struct {
	Channel int
	Chip    int
	LUN     int // LUN index within the chip
	Plane   int // plane index within the LUN
	Block   int // block index within the plane
	Page    int // page index within the block
	Column  int // byte offset within the page
}

// Validate checks the address against the geometry.
func (a Address) Validate(g Geometry) error {
	switch {
	case a.Channel < 0 || a.Channel >= g.Channels:
		return fmt.Errorf("nand: channel %d out of range", a.Channel)
	case a.Chip < 0 || a.Chip >= g.ChipsPerChannel:
		return fmt.Errorf("nand: chip %d out of range", a.Chip)
	case a.LUN < 0 || a.LUN >= g.LUNsPerChip():
		return fmt.Errorf("nand: lun %d out of range", a.LUN)
	case a.Plane < 0 || a.Plane >= g.PlanesPerLUN:
		return fmt.Errorf("nand: plane %d out of range", a.Plane)
	case a.Block < 0 || a.Block >= g.BlocksPerPlane:
		return fmt.Errorf("nand: block %d out of range", a.Block)
	case a.Page < 0 || a.Page >= g.PagesPerBlock:
		return fmt.Errorf("nand: page %d out of range", a.Page)
	case a.Column < 0 || a.Column >= g.PageBytes:
		return fmt.Errorf("nand: column %d out of range", a.Column)
	}
	return nil
}

// GlobalLUN returns the array-wide LUN index (0 .. TotalLUNs-1).
func (a Address) GlobalLUN(g Geometry) int {
	return (a.Channel*g.ChipsPerChannel+a.Chip)*g.LUNsPerChip() + a.LUN
}

// GlobalPlane returns the array-wide plane index.
func (a Address) GlobalPlane(g Geometry) int {
	return a.GlobalLUN(g)*g.PlanesPerLUN + a.Plane
}

// GlobalPage returns a unique array-wide page identifier, used by the
// simulators to detect shared page accesses.
func (a Address) GlobalPage(g Geometry) int64 {
	plane := int64(a.GlobalPlane(g))
	return plane*int64(g.PagesPerPlane()) + int64(a.Block)*int64(g.PagesPerBlock) + int64(a.Page)
}

// LUNFromGlobal reconstructs channel/chip/LUN coordinates from an
// array-wide LUN index.
func LUNFromGlobal(g Geometry, global int) (channel, chip, lun int, err error) {
	if global < 0 || global >= g.TotalLUNs() {
		return 0, 0, 0, fmt.Errorf("nand: global LUN %d out of range", global)
	}
	lun = global % g.LUNsPerChip()
	chipGlobal := global / g.LUNsPerChip()
	chip = chipGlobal % g.ChipsPerChannel
	channel = chipGlobal / g.ChipsPerChannel
	return channel, chip, lun, nil
}

// Timing holds the flash timing parameters. tR is chosen so that reading
// every plane's page buffer concurrently yields the paper's 819.2 GB/s
// internal bandwidth (Fig. 2b): 2048 planes x 16 KB / 10 us per the
// default geometry... with 512 planes per the SiN region the headline
// figure uses the 512 16KB page buffers: 512*16KiB/10us = 819.2 GB/s.
type Timing struct {
	// ReadPage (tR) is array-to-page-buffer sensing latency.
	ReadPage time.Duration
	// ChannelBusBytesPerSec is the ONFI bus bandwidth shared by the
	// chips of one channel.
	ChannelBusBytesPerSec float64
}

// DefaultTiming returns the calibrated parameters (DESIGN.md §5).
func DefaultTiming() Timing {
	return Timing{
		// 512 plane buffers x 16 KiB / 10.24 us = exactly 819.2 GB/s,
		// the paper's Fig. 2b internal-bandwidth roofline.
		ReadPage:              10240 * time.Nanosecond,
		ChannelBusBytesPerSec: 800e6,
	}
}

// Validate rejects non-physical timings.
func (t Timing) Validate() error {
	if t.ReadPage <= 0 || t.ChannelBusBytesPerSec <= 0 {
		return fmt.Errorf("nand: non-positive timing parameters")
	}
	return nil
}

// BusTransfer returns the channel-bus time to move n bytes.
func (t Timing) BusTransfer(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / t.ChannelBusBytesPerSec * float64(time.Second))
}

// InternalBandwidth returns the aggregate page-buffer bandwidth when all
// plane buffers are read simultaneously — the roofline lift of Fig. 2b.
func (t Timing) InternalBandwidth(g Geometry) float64 {
	return float64(g.TotalPlanes()) * float64(g.PageBytes) / t.ReadPage.Seconds()
}

// CheckMultiPlane enforces the two multi-plane addressing restrictions of
// §VI-A2 on a command group issued to one LUN: (i) plane address bits
// must be pairwise distinct, and (ii) the page (and implicitly LUN)
// address must be identical across the group.
func CheckMultiPlane(g Geometry, addrs []Address) error {
	if len(addrs) == 0 {
		return fmt.Errorf("nand: empty multi-plane group")
	}
	ref := addrs[0]
	seenPlane := map[int]bool{}
	for i, a := range addrs {
		if err := a.Validate(g); err != nil {
			return fmt.Errorf("nand: multi-plane member %d: %w", i, err)
		}
		if a.Channel != ref.Channel || a.Chip != ref.Chip || a.LUN != ref.LUN {
			return fmt.Errorf("nand: multi-plane member %d targets a different LUN", i)
		}
		// Restriction (ii) pins the page (and LUN) address; block bits
		// may differ per plane, which is what lets block-level refresh
		// stay within planes without breaking multi-plane groups.
		if a.Page != ref.Page {
			return fmt.Errorf("nand: multi-plane member %d violates same-page restriction", i)
		}
		if seenPlane[a.Plane] {
			return fmt.Errorf("nand: multi-plane member %d repeats plane %d", i, a.Plane)
		}
		seenPlane[a.Plane] = true
	}
	return nil
}
