// Package obs is the reproduction's dependency-free observability layer:
// atomic counters, gauges with high-water marks, fixed-bucket duration
// histograms, stage timers, and a registry that snapshots everything in
// deterministic (sorted-name) order.
//
// The layer is strictly side-band. Instrumented code records into it, but
// nothing ever flows back: analysis results, race reports and crash-campaign
// documents are byte-identical whether a registry is attached or not (the
// determinism contract DESIGN.md spells out — no wall-clock value may reach
// a hawkset.Result or a report document; timings live only in snapshots).
//
// Every handle is safe on a nil receiver, and a nil *Registry hands out nil
// handles, so instrumentation points read as unconditional calls:
//
//	r := cfg.Metrics.Counter("pmrt.events") // nil registry -> nil counter
//	r.Inc()                                 // no-op when disabled
//
// Handles are looked up once (at construction of the instrumented component)
// and used on hot paths; the per-event cost with metrics disabled is a nil
// check, and with metrics enabled one atomic add.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level that additionally remembers its high-water
// mark — the retention detector: a bounded gauge whose Max keeps climbing is
// a leak.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.bumpMax(g.v.Add(d))
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark (0 on a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// BucketBounds are the histogram's fixed upper bounds. Durations above the
// last bound land in an implicit +Inf overflow bucket. Log-decade bounds
// cover everything from a single interned-table probe to a full campaign.
var BucketBounds = [...]time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// Histogram is a fixed-bucket duration histogram with count/sum/min/max.
// Observations are atomic; concurrent goroutines may observe into one histogram.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Int64
	minNS   atomic.Int64 // math.MaxInt64 until the first observation
	maxNS   atomic.Int64
	buckets [len(BucketBounds) + 1]atomic.Uint64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minNS.Store(math.MaxInt64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		m := h.maxNS.Load()
		if ns <= m || h.maxNS.CompareAndSwap(m, ns) {
			break
		}
	}
	for {
		m := h.minNS.Load()
		if ns >= m || h.minNS.CompareAndSwap(m, ns) {
			break
		}
	}
	i := 0
	for i < len(BucketBounds) && d > BucketBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
}

// Time starts a stopwatch; the returned stop function records the elapsed
// duration. Usage: defer h.Time()().
func (h *Histogram) Time() func() {
	if h == nil {
		return func() {}
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sumNS.Load())
}

// Registry names and owns metrics. The zero value is not usable; construct
// with NewRegistry. A nil *Registry is the disabled layer: every lookup
// returns a nil handle whose methods no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
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
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Stage starts timing one pipeline stage; the returned stop function records
// the elapsed duration into the named histogram:
//
//	stop := cfg.Metrics.Stage("hawkset.stage.analyze")
//	... run the stage ...
//	stop()
//
// On a nil registry the stopwatch never reads the clock.
func (r *Registry) Stage(name string) func() {
	if r == nil {
		return func() {}
	}
	return r.Histogram(name).Time()
}

// sortedKeys returns m's keys in ascending order — the deterministic
// snapshot walk.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
