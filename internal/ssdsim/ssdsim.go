// Package ssdsim provides the execution-time breakdown accounting (the
// categories of Fig. 17) shared by the NDSEARCH system simulator and the
// baseline platform models.
package ssdsim

import (
	"sort"
	"time"
)

// Breakdown accumulates execution time per category (Fig. 17's NAND
// read, DRAM access, embedded cores, allocating, FPGA sort, SSD I/O...).
type Breakdown map[string]time.Duration

// Add accumulates d into category cat.
func (b Breakdown) Add(cat string, d time.Duration) { b[cat] += d }

// Total sums all categories.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Fractions returns each category's share of the total, sorted by
// descending share for stable reporting.
func (b Breakdown) Fractions() []CategoryShare {
	total := b.Total()
	out := make([]CategoryShare, 0, len(b))
	for cat, d := range b {
		share := 0.0
		if total > 0 {
			share = float64(d) / float64(total)
		}
		out = append(out, CategoryShare{Category: cat, Time: d, Share: share})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Share != out[j].Share {
			return out[i].Share > out[j].Share
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// CategoryShare is one row of a breakdown report.
type CategoryShare struct {
	Category string
	Time     time.Duration
	Share    float64
}
