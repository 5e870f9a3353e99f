// Package obs is the zero-dependency observability substrate of the
// repository: structured counters and gauges (atomic, so concurrent jobs
// sharing one registry record without locks on the hot path),
// sliding-window latency histograms, and JSON/text snapshots for
// machine-readable performance tracking. Intervals are timed elsewhere:
// the ring tracer (obs/trace) records the batch timeline and the
// per-trace span index (obs/spans) times each daemon job.
//
// The paper's value is its complexity claims — the linear-time ARD of
// Fig. 2 and a pruned PWL dynamic program whose practical cost is
// governed by per-node solution-set sizes and PWL segment counts
// (Tables I–IV) — so the pipeline packages (core, ard, experiments)
// thread a *Registry through their entry points and report exactly
// those quantities. See DESIGN.md §7 for the metric-to-paper mapping.
//
// A nil *Registry is a valid sink: every method and every handle it
// returns is nil-safe and allocation-free, so instrumented hot paths
// cost a predictable nil check when observability is off.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a named set of metrics. All methods are safe for
// concurrent use and nil-safe (a nil *Registry records nothing).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	windows  map[string]*WindowHist

	// runtimeOn makes snapshots carry a RuntimeSnapshot (EnableRuntime).
	runtimeOn bool
}

// New returns an empty registry.
func New() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = map[string]*Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.v)
}

// Gauge is an atomic last/extreme-value cell. All methods are nil-safe.
type Gauge struct{ v int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	atomic.StoreInt64(&g.v, v)
}

// SetMax raises the gauge to v if v is greater than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := atomic.LoadInt64(&g.v)
		if v <= cur {
			return
		}
		if atomic.CompareAndSwapInt64(&g.v, cur, v) {
			return
		}
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	atomic.AddInt64(&g.v, delta)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return atomic.LoadInt64(&g.v)
}

func addFloatBits(p *uint64, v float64) {
	for {
		old := atomic.LoadUint64(p)
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(p, old, nw) {
			return
		}
	}
}
