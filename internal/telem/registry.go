package telem

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// LatencyBounds are the latency histogram upper bounds in seconds, from
// 100µs to 100s. Every latency histogram on /metrics and the SLO
// tracker use this one list, so percentiles interpolated from SLO
// buckets agree with the exposition.
var LatencyBounds = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Registry is a metric registry. Each metric registers itself once when
// it is created; Render (the Prometheus text exposition on /metrics) and
// Snapshot (the /debug/vars JSON map) both walk that one registration
// list, so a metric cannot be missing from one of them. A new registry
// already holds the Go runtime families.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
}

// desc names one metric family.
type desc struct {
	name, help, typ string
}

func (d *desc) describe() *desc { return d }

// metric is one registered family.
type metric interface {
	describe() *desc
	// value is the family's /debug/vars entry; rs is the scrape's one
	// runtime sample.
	value(rs *RuntimeStats) any
}

// NewRegistry returns a registry holding the Go runtime families.
func NewRegistry() *Registry {
	r := &Registry{}
	registerRuntime(r)
	return r
}

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

func (r *Registry) list() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// NewCounter registers a monotonically increasing counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{desc: desc{name, help, "counter"}}
	r.register(c)
	return c
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{desc: desc{name, help, "gauge"}}
	r.register(g)
	return g
}

// NewCounterVec registers a counter partitioned by the named labels.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	c := &CounterVec{desc: desc{name, help, "counter"}, labels: labels, series: map[string]*labeledSeries{}}
	r.register(c)
	return c
}

// NewHistogram registers a histogram with fixed ascending upper bounds
// (+Inf is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	h.desc = desc{name, help, "histogram"}
	r.register(h)
	return h
}

var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

// Render writes every registered family in the Prometheus text
// exposition format, in registration order.
func (r *Registry) Render(w io.Writer) {
	rs := ReadRuntime()
	for _, m := range r.list() {
		d := m.describe()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", d.name, helpEscaper.Replace(d.help), d.name, d.typ)
		switch m := m.(type) {
		case *CounterVec:
			m.writeSamples(w)
		case *Histogram:
			m.writeSamples(w)
		default:
			fmt.Fprintf(w, "%s %v\n", d.name, m.value(&rs))
		}
	}
}

// ServeHTTP serves Render as a /metrics endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.Render(w)
}

// Snapshot returns every registered family as a flat JSON-friendly map:
// the /debug/vars mirror of Render.
func (r *Registry) Snapshot() map[string]any {
	rs := ReadRuntime()
	out := map[string]any{}
	for _, m := range r.list() {
		out[m.describe().name] = m.value(&rs)
	}
	return out
}

// Counter is a monotonically increasing metric.
type Counter struct {
	desc
	v atomic.Int64
}

func (c *Counter) Add(n int64)             { c.v.Add(n) }
func (c *Counter) Inc()                    { c.v.Add(1) }
func (c *Counter) Value() int64            { return c.v.Load() }
func (c *Counter) value(*RuntimeStats) any { return c.Value() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	desc
	v atomic.Int64
}

// Add adds n and returns the new value.
func (g *Gauge) Add(n int64) int64       { return g.v.Add(n) }
func (g *Gauge) Set(n int64)             { g.v.Store(n) }
func (g *Gauge) Value() int64            { return g.v.Load() }
func (g *Gauge) value(*RuntimeStats) any { return g.Value() }

// CounterVec is a counter partitioned by label values.
type CounterVec struct {
	desc
	labels []string // label names, in render order

	mu     sync.Mutex
	series map[string]*labeledSeries // key: labelKey of the values
}

// labeledSeries is one label combination's series. The values are
// stored verbatim and never re-derived by splitting the map key, so a
// value holding any byte can neither collide two series nor corrupt
// the exposition.
type labeledSeries struct {
	values []string
	v      atomic.Int64
}

// labelKey length-prefixes each value rather than joining with a
// separator byte: label values arrive from request headers, so no byte
// can be assumed absent, and a plain join would alias ("a\xffb", "c")
// with ("a", "b\xffc").
func labelKey(values ...string) string {
	var b []byte
	for _, v := range values {
		b = strconv.AppendInt(b, int64(len(v)), 10)
		b = append(b, ':')
		b = append(b, v...)
	}
	return string(b)
}

func (c *CounterVec) Inc(labelValues ...string) { c.Add(1, labelValues...) }

// Add adds n to the series of labelValues, one value per label name; a
// different count of values is a bug and panics.
func (c *CounterVec) Add(n int64, labelValues ...string) {
	if len(labelValues) != len(c.labels) {
		panic(fmt.Sprintf("telem: metric %s: %d label values for %d labels", c.name, len(labelValues), len(c.labels)))
	}
	key := labelKey(labelValues...)
	c.mu.Lock()
	s, ok := c.series[key]
	if !ok {
		s = &labeledSeries{values: append([]string(nil), labelValues...)}
		c.series[key] = s
	}
	c.mu.Unlock()
	s.v.Add(n)
}

// Value returns the count of one label combination (0 if never seen).
func (c *CounterVec) Value(labelValues ...string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s, ok := c.series[labelKey(labelValues...)]; ok {
		return s.v.Load()
	}
	return 0
}

// value keys each series by its comma-joined label values.
func (c *CounterVec) value(*RuntimeStats) any {
	out := map[string]int64{}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.series {
		out[strings.Join(s.values, ",")] = s.v.Load()
	}
	return out
}

func (c *CounterVec) writeSamples(w io.Writer) {
	c.mu.Lock()
	keys := make([]string, 0, len(c.series))
	for k := range c.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, len(keys))
	for i, k := range keys {
		s := c.series[k]
		parts := make([]string, len(c.labels))
		for j, name := range c.labels {
			parts[j] = name + `="` + labelEscaper.Replace(s.values[j]) + `"`
		}
		lines[i] = fmt.Sprintf("%s{%s} %d\n", c.name, strings.Join(parts, ","), s.v.Load())
	}
	c.mu.Unlock()
	for _, l := range lines {
		io.WriteString(w, l)
	}
}

// Histogram is a fixed-bucket histogram.
type Histogram struct {
	desc
	bounds []float64 // upper bounds, ascending; +Inf implicit

	mu     sync.Mutex
	counts []int64 // per bucket; the last is the +Inf overflow bucket
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value in the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	h.sum += v
	h.n++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// read returns a copy of the per-bucket counts, the sum and the count.
func (h *Histogram) read() (counts []int64, sum float64, n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int64(nil), h.counts...), h.sum, h.n
}

func (h *Histogram) value(*RuntimeStats) any {
	_, sum, n := h.read()
	return map[string]any{"count": n, "sum": sum}
}

func (h *Histogram) writeSamples(w io.Writer) {
	counts, sum, n := h.read()
	var cum int64
	for i, ub := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", h.name, ub, cum)
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, sum)
	fmt.Fprintf(w, "%s_count %d\n", h.name, n)
}
