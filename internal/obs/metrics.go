// Package obs is the observability substrate for the serving stack: a
// dependency-free metrics registry (atomic counters, fixed-bucket latency
// histograms, and counters and gauges read at scrape time, with a
// Prometheus text exposition) plus a lightweight per-query stage-trace
// recorder (trace.go).
//
// Design constraints, in order:
//
//   - Always on. Instruments are plain values their owner constructs
//     (NewCounter, NewHistogram, ...) and updates from its first
//     operation; they are the owner's only accumulators, so there is no
//     "observability off" state. A Registry only names them for
//     exposition (Register).
//   - Lock-free on the hot path. Counters and histogram buckets are
//     single atomic operations; the only mutex in the package guards
//     registration and scraping, which are cold.
//   - Deterministic output shape. Metric names render sorted, bucket
//     bounds are fixed at construction, and float formatting is
//     canonical — two scrapes of identical counter states are
//     byte-identical. (Values themselves are wall-clock derived; obs is
//     the sanctioned time.Now consumer, see DESIGN.md §13.)
//
// The registry speaks the Prometheus text exposition format version
// 0.0.4, so any scraper can ingest GET /metrics directly.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ExpositionContentType is the Content-Type of WritePrometheus output.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Metric is one registrable instrument: a name for sorting/dup checks
// and a renderer for the exposition. Only this package's instruments
// implement it.
type Metric interface {
	metricName() string
	writeExposition(w io.Writer) error
}

// Registry holds named instruments and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. Registration
// is expected at process start: invalid or duplicate names panic
// (programmer error, caught by any test that touches the wiring), while
// the serving path — updates and scrapes — never fails.
type Registry struct {
	mu sync.Mutex
	// byName detects duplicates; ordered keeps metrics sorted by name so
	// exposition order is deterministic without ranging over the map.
	byName  map[string]Metric
	ordered []Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Metric)}
}

// Register adds the instruments to the exposition, keeping ordered
// sorted by name.
func (r *Registry) Register(ms ...Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range ms {
		name := m.metricName()
		if !validName(name) {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
		if _, dup := r.byName[name]; dup {
			panic(fmt.Sprintf("obs: duplicate metric name %q", name))
		}
		r.byName[name] = m
		i := sort.Search(len(r.ordered), func(i int) bool {
			return r.ordered[i].metricName() >= name
		})
		r.ordered = append(r.ordered, nil)
		copy(r.ordered[i+1:], r.ordered[i:])
		r.ordered[i] = m
	}
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// WritePrometheus renders every registered metric in text exposition
// format, sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]Metric, len(r.ordered))
	copy(metrics, r.ordered)
	r.mu.Unlock()
	for _, m := range metrics {
		if err := m.writeExposition(w); err != nil {
			return err
		}
	}
	return nil
}

// header writes the # HELP / # TYPE preamble for one metric.
func header(w io.Writer, name, help, typ string) error {
	help = strings.ReplaceAll(help, "\\", `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// formatFloat renders a sample value canonically: shortest round-trip
// form (strconv 'g' with -1 precision), except that integral values a
// float64 holds exactly print in full — 'g' switches to an exponent at
// 1e6, and a scrape-time counter must read like a Counter's %d.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer-valued counter. All
// methods are safe for concurrent use.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// NewCounter returns a counter. By Prometheus convention counter names
// end in _total.
func NewCounter(name, help string) *Counter {
	return &Counter{name: name, help: help}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) writeExposition(w io.Writer) error {
	if err := header(w, c.name, c.help, "counter"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
	return err
}

// funcMetric exposes a value read at scrape time — for state another
// subsystem already tracks (live vector counts, page-cache counters),
// so scraping never duplicates bookkeeping.
type funcMetric struct {
	name, help, typ string
	read            func() float64
}

// NewCounterFunc returns a counter whose value is read at scrape time.
// read must be monotonically non-decreasing and safe for concurrent
// use.
func NewCounterFunc(name, help string, read func() float64) Metric {
	return &funcMetric{name: name, help: help, typ: "counter", read: read}
}

// NewGaugeFunc returns a gauge whose value is read at scrape time. read
// must be safe for concurrent use.
func NewGaugeFunc(name, help string, read func() float64) Metric {
	return &funcMetric{name: name, help: help, typ: "gauge", read: read}
}

func (m *funcMetric) metricName() string { return m.name }

func (m *funcMetric) writeExposition(w io.Writer) error {
	if err := header(w, m.name, m.help, m.typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.read()))
	return err
}

// Histogram is a fixed-bucket distribution. Bucket upper bounds are
// frozen at construction (deterministic across restarts), observation
// is one binary search plus two atomic adds, and the rendered _count is
// derived from the buckets themselves so a scrape can never show a
// count that disagrees with its own bucket sums. All methods are safe
// for concurrent use.
type Histogram struct {
	name, help string
	// bounds are the ascending finite upper bounds; counts has one extra
	// slot for the implicit +Inf bucket. counts[i] holds observations in
	// (bounds[i-1], bounds[i]] — per-bucket, cumulated at render time.
	bounds  []float64
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the observation sum
}

// NewHistogram returns a histogram over the given ascending, finite
// bucket upper bounds (the +Inf bucket is implicit). Panics if bounds
// are empty or not strictly ascending.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= bounds[i-1]) {
			panic(fmt.Sprintf("obs: histogram %q bounds must be finite and strictly ascending", name))
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// First bound >= v is the tightest le bucket; past the last bound the
	// sample lands in +Inf.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) writeExposition(w io.Writer) error {
	if err := header(w, h.name, h.help, "histogram"); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.name, formatFloat(h.Sum()), h.name, cum)
	return err
}

// LatencyBuckets are the standard latency bounds, in seconds: 50 µs to
// 10 s, roughly 1-2.5-5 per decade. They cover a kernelized in-memory
// shard scan (tens of µs) through a cold beyond-RAM paged traversal and
// a full compaction drain.
var LatencyBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10,
}

// SizeBuckets are the standard count bounds (batch sizes, queue
// depths): powers of two through the ndserve batch cap.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// StoreMax raises a to v if v is larger — the lock-free running maximum
// instrument owners keep beside a histogram, whose buckets cannot give
// an exact maximum back.
func StoreMax(a *atomic.Int64, v int64) {
	for old := a.Load(); v > old; old = a.Load() {
		if a.CompareAndSwap(old, v) {
			return
		}
	}
}
