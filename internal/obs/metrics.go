package obs

// Hand-rolled Prometheus-format metric primitives: counters, labeled
// counter families, gauges and fixed-bucket histograms backed by
// atomics, with text exposition. No client library — the exposition
// format is a few lines of text and the system needs exactly counters,
// histograms and scrape-time gauges. These began life inside
// internal/api for the serve surface; the whole process now shares
// this one set of primitives.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a single monotonically increasing counter.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// NewCounter builds a plain counter.
func NewCounter(name, help string) *Counter {
	return &Counter{name: name, help: help}
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// WritePrometheus emits the counter with its HELP/TYPE header.
func (c *Counter) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v.Load())
}

// CounterVec is a labeled counter family (one label dimension set at
// construction; values materialize on first use).
type CounterVec struct {
	name   string
	help   string
	labels []string

	mu   sync.Mutex
	vals map[string]*atomic.Uint64 // key: joined label values
}

// NewCounterVec builds a counter family with the given label names.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{name: name, help: help, labels: labels, vals: make(map[string]*atomic.Uint64)}
}

// With returns the counter for one label-value combination.
func (c *CounterVec) With(values ...string) *atomic.Uint64 {
	key := strings.Join(values, "\x00")
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.vals[key]
	if !ok {
		v = new(atomic.Uint64)
		c.vals[key] = v
	}
	return v
}

// Total returns the sum of the family's counters over every label
// value.
func (c *CounterVec) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum uint64
	for _, v := range c.vals {
		sum += v.Load()
	}
	return sum
}

// WritePrometheus emits the family in Prometheus text exposition
// format, rows sorted by label values.
func (c *CounterVec) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", c.name, c.help, c.name)
	c.mu.Lock()
	keys := sortedKeys(c.vals)
	type kv struct {
		key string
		val uint64
	}
	rows := make([]kv, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, kv{k, c.vals[k].Load()})
	}
	c.mu.Unlock()
	for _, r := range rows {
		values := strings.Split(r.key, "\x00")
		parts := make([]string, len(c.labels))
		for i, l := range c.labels {
			parts[i] = fmt.Sprintf("%s=%q", l, values[i])
		}
		fmt.Fprintf(w, "%s{%s} %d\n", c.name, strings.Join(parts, ","), r.val)
	}
}

// Gauge is a single instantaneous value set by the instrumented code
// (as opposed to scrape-time gauges, which use WriteGauge or a
// CollectorFunc over live state).
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// NewGauge builds a settable gauge.
func NewGauge(name, help string) *Gauge {
	return &Gauge{name: name, help: help}
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// WritePrometheus emits the gauge with its HELP/TYPE header.
func (g *Gauge) WritePrometheus(w io.Writer) {
	WriteGauge(w, g.name, g.help, g.v.Load())
}

// Histogram is a fixed-bucket Prometheus histogram (cumulative buckets
// materialized at exposition; observation is two atomic adds and a
// bucket increment).
type Histogram struct {
	name    string
	help    string
	buckets []float64 // upper bounds, ascending
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits
	count   atomic.Uint64
}

// DefaultLatencyBuckets span sub-millisecond store hits through
// multi-second live solves.
var DefaultLatencyBuckets = []float64{
	.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{name: name, help: help, buckets: buckets, counts: make([]atomic.Uint64, len(buckets))}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// WritePrometheus emits the histogram in Prometheus text exposition
// format.
func (h *Histogram) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, h.help, h.name)
	var cum uint64
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, FormatFloat(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, h.count.Load())
	fmt.Fprintf(w, "%s_sum %s\n", h.name, FormatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}

// FormatFloat renders a float without trailing zeros, matching the
// bucket labels Prometheus clients emit.
func FormatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}

// WriteGauge emits one gauge sample with its HELP/TYPE header.
func WriteGauge(w io.Writer, name, help string, val int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, val)
}
