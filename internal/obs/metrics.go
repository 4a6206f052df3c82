// Package obs is the observability substrate of the upsim system: a
// concurrency-safe metrics registry with Prometheus text-format exposition,
// a lightweight hierarchical span tracer for the Step 5–8 pipeline, and a
// swappable structured logger (log/slog).
//
// Everything is stdlib-only by design — the package exists so that the hot
// paths (path discovery, UPSIM generation, the HTTP API) can report what
// they do without pulling a client library into a dependency-free
// reproduction. Metric families are registered once, at package init of the
// instrumented package, against the Default registry:
//
//	var mPatched = obs.NewCounter("upsim_whatif_patch_total",
//	        "Topology deltas applied to the live graph.", "op")
//	mPatched.With("remove-node").Inc()
//
// and exposed by mounting obs.Handler() (see internal/server, GET /metrics).
package obs

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

// metricKind discriminates the exposition TYPE line.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format (version 0.0.4). All methods are safe for concurrent
// use.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order, which exposition follows
	byName   map[string]*family
}

// family is one named metric with a fixed label schema and one child per
// distinct label-value combination.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing

	mu       sync.Mutex
	order    []string // child keys in creation order
	children map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// defaultRegistry backs the package-level constructors and Handler.
var defaultRegistry = NewRegistry()

// DefaultRegistry returns the process-wide registry that the package-level
// constructors register into.
func DefaultRegistry() *Registry { return defaultRegistry }

func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]any{},
	}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// child returns (creating on demand) the metric instance for one
// label-value combination.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// --- Counter ---

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (one per declared
// label, in declaration order).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// NewCounter registers a counter family in the given registry.
func (r *Registry) NewCounter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, kindCounter, nil, labels)}
}

// NewCounter registers a counter family in the Default registry.
func NewCounter(name, help string, labels ...string) *CounterVec {
	return defaultRegistry.NewCounter(name, help, labels...)
}

// --- Gauge ---

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// NewGauge registers a gauge family in the given registry.
func (r *Registry) NewGauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, kindGauge, nil, labels)}
}

// NewGauge registers a gauge family in the Default registry.
func NewGauge(name, help string, labels ...string) *GaugeVec {
	return defaultRegistry.NewGauge(name, help, labels...)
}

// --- Histogram ---

// Histogram accumulates observations into fixed buckets. Buckets are upper
// bounds; an implicit +Inf bucket catches everything above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1, last is +Inf
	count  uint64
	sum    float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot returns cumulative bucket counts, total count and sum.
func (h *Histogram) snapshot() ([]uint64, uint64, float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.count, h.sum
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any {
		return &Histogram{
			bounds: v.f.buckets,
			counts: make([]uint64, len(v.f.buckets)+1),
		}
	}).(*Histogram)
}

// NewHistogram registers a histogram family with the given bucket upper
// bounds (must be strictly increasing) in the given registry.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly increasing", name))
		}
	}
	return &HistogramVec{f: r.register(name, help, kindHistogram, buckets, labels)}
}

// NewHistogram registers a histogram family in the Default registry.
func NewHistogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return defaultRegistry.NewHistogram(name, help, buckets, labels...)
}

// LatencyBuckets are the default buckets for request latencies in seconds.
var LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous — the right shape for the factorially growing search-effort
// counters of path discovery.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// --- Exposition ---

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelString renders {k="v",...} for the family's schema and one child
// key; extra appends additional pairs (used for histogram "le").
func (f *family) labelString(key string, extra ...string) string {
	var parts []string
	if len(f.labels) > 0 {
		values := strings.Split(key, "\x00")
		for i, l := range f.labels {
			parts = append(parts, l+`="`+escapeLabel(values[i])+`"`)
		}
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, extra[i]+`="`+escapeLabel(extra[i+1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatFloat renders a sample value without exponent noise.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ExposeTo renders the registry in the Prometheus text exposition format.
func (r *Registry) ExposeTo(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make(map[string]any, len(keys))
		for _, k := range keys {
			children[k] = f.children[k]
		}
		f.mu.Unlock()
		if len(keys) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, k := range keys {
			switch c := children[k].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(k), c.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %d\n", f.name, f.labelString(k), c.Value())
			case *Histogram:
				cum, count, sum := c.snapshot()
				for i, bound := range f.buckets {
					fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
						f.labelString(k, "le", formatFloat(bound)), cum[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, f.labelString(k, "le", "+Inf"), cum[len(cum)-1])
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, f.labelString(k), formatFloat(sum))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, f.labelString(k), count)
			}
		}
	}
}

// Expose returns the full exposition document.
func (r *Registry) Expose() string {
	var b strings.Builder
	r.ExposeTo(&b)
	return b.String()
}

// Handler serves the registry in the text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Expose()))
	})
}

// Handler serves the Default registry (mount as GET /metrics).
func Handler() http.Handler { return defaultRegistry.Handler() }

// Snapshot returns every metric's current value as a JSON-friendly tree
// keyed by family name, for expvar-style debugging endpoints. Histograms
// report count and sum.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	out := make(map[string]any, len(fams))
	for _, f := range fams {
		f.mu.Lock()
		vals := make(map[string]any, len(f.order))
		for _, k := range f.order {
			label := strings.Join(strings.Split(k, "\x00"), ",")
			if label == "" {
				label = "_"
			}
			switch c := f.children[k].(type) {
			case *Counter:
				vals[label] = c.Value()
			case *Gauge:
				vals[label] = c.Value()
			case *Histogram:
				_, count, sum := c.snapshot()
				vals[label] = map[string]any{"count": count, "sum": sum}
			}
		}
		f.mu.Unlock()
		if len(vals) > 0 {
			out[f.name] = vals
		}
	}
	return out
}
