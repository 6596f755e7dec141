// Package obs is the engine's observability layer: dependency-free atomic
// counters and gauges, fixed-bucket latency histograms (p50/p95/p99
// derivable), and context-propagated trace spans feeding a ring-buffered
// slow-op log. Subsystems (WAL, buffer pool, TSB-tree, lock manager, serving
// layer, cold tier) register their metrics here at package init;
// cmd/immortald renders the registry in Prometheus text exposition format on
// /metrics, after the families it reads from instance Stats, and the
// slow-op ring on /debug/slowops.
//
// The layer is built to live on hot paths. Recording is a few atomic
// operations behind one check of a constant: building with the `obsoff` tag
// makes it false, which compiles every recording call down to a dead branch
// and gives a true no-op baseline for overhead measurement. There is no
// runtime switch.
//
// Metrics are process-global, like Prometheus default-registry collectors: a
// process serving several DB instances aggregates them. The registry
// therefore holds only facts no instance counts, as cumulative counters and
// histograms (where aggregation is sound) and the in-flight request gauge.
// A fact an instance already counts — and every per-engine size or state —
// is read from that instance's Stats, never mirrored here: a global gauge
// holds whatever the last instance wrote.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Enabled reports whether recording is compiled in. It returns the
// compiledIn constant, so under the obsoff build tag every recording
// method's check folds away.
func Enabled() bool { return compiledIn }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if !Enabled() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if !Enabled() {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if !Enabled() {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds registered metrics in registration order. The package-level
// constructors (NewCounter, NewGauge, NewHistogram) register into Default,
// which is what /metrics renders.
type Registry struct {
	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	names    map[string]bool
}

// Default is the process-wide registry.
var Default = &Registry{names: make(map[string]bool)}

func (r *Registry) checkName(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
}

// NewCounter registers a counter in the Default registry. Metric names
// follow Prometheus conventions (snake_case, _total suffix for counters).
// Registration happens at package init; a duplicate name panics.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	Default.mu.Lock()
	defer Default.mu.Unlock()
	Default.checkName(name)
	Default.counters = append(Default.counters, c)
	return c
}

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	Default.mu.Lock()
	defer Default.mu.Unlock()
	Default.checkName(name)
	Default.gauges = append(Default.gauges, g)
	return g
}

// NewHistogram registers a histogram with the given bucket upper bounds
// (ascending; an implicit +Inf bucket is appended) in the Default registry.
func NewHistogram(name, help string, uppers []float64) *Histogram {
	h := newHistogram(name, help, uppers)
	Default.mu.Lock()
	defer Default.mu.Unlock()
	Default.checkName(name)
	Default.hists = append(Default.hists, h)
	return h
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format: counters and gauges as single samples, histograms as
// summaries (p50/p95/p99 quantiles plus _sum and _count).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	for _, c := range counters {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.Value())
	}
	for _, g := range gauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.Value())
	}
	for _, h := range hists {
		h.writePrometheus(w)
	}
}

// WriteMetrics renders the Default registry.
func WriteMetrics(w io.Writer) { Default.WritePrometheus(w) }

// findHistogram returns the registered histogram with the given name (tests
// and the overhead report).
func findHistogram(name string) *Histogram {
	Default.mu.Lock()
	defer Default.mu.Unlock()
	for _, h := range Default.hists {
		if h.name == name {
			return h
		}
	}
	return nil
}

// HistogramSnapshot returns count, sum and the given quantiles of a
// registered histogram, or ok=false if no histogram has that name.
func HistogramSnapshot(name string, qs ...float64) (count uint64, sum float64, quantiles []float64, ok bool) {
	h := findHistogram(name)
	if h == nil {
		return 0, 0, nil, false
	}
	count, sum = h.Count(), h.Sum()
	for _, q := range qs {
		quantiles = append(quantiles, h.Quantile(q))
	}
	return count, sum, quantiles, true
}

// sortedCopy returns a sorted copy of vs (bucket bound validation).
func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}
