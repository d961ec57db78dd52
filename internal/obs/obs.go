// Package obs is the unified observability layer: a dependency-free
// metrics registry (atomic counters, gauges, and fixed-bucket histograms
// with Prometheus-text and JSON exposition), a span ring whose decision
// spans explain anomaly verdicts after the fact, a leveled key=value
// logger, and an HTTP admin surface (metrics, status, spans, health,
// pprof).
//
// The paper's system is a *runtime* predictor operating beside reactive
// monitoring (§1); operators must be able to answer "why was this message
// flagged?" and "is the model drifting?" without stopping the service.
// Every runtime component reports into one Registry, and the same numbers
// appear in logs, Stats() snapshots, and /metrics without double
// bookkeeping.
//
// Cost model: all metric handles are nil-safe. A nil *Counter, *Gauge,
// *Histogram, *SpanRing or *Tracer turns every operation into a
// branch-and-return — zero allocations, no atomics, no clock reads — so
// hot paths can be instrumented unconditionally and pay only when a
// registry is actually attached. A nil *Registry returns nil handles from every constructor.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; a nil Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Store overwrites the counter, for restoring checkpointed totals. It is
// not part of the hot-path API.
func (c *Counter) Store(n uint64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. The zero value is ready to use;
// a nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt replaces the gauge value with an integer.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// SetTime stores t as Unix seconds (0 for the zero time), the conventional
// "last happened at" gauge encoding.
func (g *Gauge) SetTime(t time.Time) {
	if t.IsZero() {
		g.Set(0)
		return
	}
	g.Set(float64(t.UnixNano()) / 1e9)
}

// Value returns the current value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram safe for concurrent Observe. Bucket
// i counts observations v <= bounds[i] (and > bounds[i-1]); one implicit
// overflow bucket (+Inf) counts everything above the last bound, so
// underflow lands in bucket 0 and overflow is never silently dropped. A nil
// Histogram is a no-op.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// exemplars holds the latest exemplar per bucket (len(bounds)+1,
	// same layout as counts); entries are nil until ObserveExemplar
	// lands one in that bucket.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it, linking
// a histogram bucket on /metrics to a span on /spans. Only sampled
// observations record exemplars, so the allocation per store is off the
// common path by construction.
type Exemplar struct {
	TraceID SpanID    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

// newHistogram validates and copies the bounds (strictly increasing,
// non-empty).
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// bucketIndex finds v's bucket. Linear scan: bucket counts are small
// (≤ ~20) and the scan is branch-predictable; a binary search costs more
// in practice here.
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveExemplar records one value and attaches the trace that produced
// it as the bucket's exemplar (latest wins). Call it only for sampled
// observations: the exemplar store allocates.
func (h *Histogram) ObserveExemplar(v float64, id SpanID) {
	if h == nil {
		return
	}
	h.Observe(v)
	if id != 0 {
		h.exemplars[h.bucketIndex(v)].Store(&Exemplar{TraceID: id, Value: v, Time: time.Now()})
	}
}

// Exemplars returns each bucket's latest exemplar (nil where none
// landed); the final entry is the +Inf overflow bucket's, so the slice is
// len(bounds)+1 like Buckets counts.
func (h *Histogram) Exemplars() []*Exemplar {
	if h == nil {
		return nil
	}
	out := make([]*Exemplar, len(h.exemplars))
	for i := range h.exemplars {
		out[i] = h.exemplars[i].Load()
	}
	return out
}

// Start returns a start time for ObserveDuration, or the zero time on a
// nil histogram — the no-op path never reads the clock.
func (h *Histogram) Start() time.Time {
	if h == nil {
		return time.Time{}
	}
	return time.Now()
}

// ObserveDuration records seconds elapsed since start (from Start).
func (h *Histogram) ObserveDuration(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns (upper bounds, per-bucket counts); the final count is
// the +Inf overflow bucket, so len(counts) == len(bounds)+1.
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

// ExpBuckets returns n strictly increasing bounds starting at start and
// multiplying by factor — the standard latency-histogram shape.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start>0, factor>1, n>=1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	if width <= 0 || n < 1 {
		panic("obs: LinearBuckets needs width>0, n>=1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// DurationBuckets is a general-purpose latency bucket layout: 1µs … ~16s
// in powers of 4 (1µs, 4µs, 16µs, 64µs, 256µs, ~1ms, ~4ms, ~16ms, ~65ms,
// ~262ms, ~1s, ~4.2s, ~16.8s).
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 4, 13) }

// metricKind discriminates registry entries for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered metric with its metadata.
type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry owns a flat namespace of metrics. All methods are safe for
// concurrent use; a nil Registry hands out nil (no-op) metric handles, so
// "observability off" is a nil check away for every instrumented package.
//
// Names follow the Prometheus convention ([a-zA-Z_][a-zA-Z0-9_]*); the
// registry does not enforce it beyond what exposition requires. Registering
// the same name twice returns the same metric handle (and panics when the
// kinds disagree — that is a programming error, not an operational state).
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// lookup returns the existing entry for name or registers a new one built
// by mk.
func (r *Registry) lookup(name string, kind metricKind, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, func() *metric {
		return &metric{name: name, help: help, kind: kindCounter, c: &Counter{}}
	}).c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, func() *metric {
		return &metric{name: name, help: help, kind: kindGauge, g: &Gauge{}}
	}).g
}

// Histogram registers (or fetches) a histogram with the given upper
// bounds. The bounds of an already registered histogram win; callers
// re-registering must pass compatible bounds (they are not re-checked).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, func() *metric {
		return &metric{name: name, help: help, kind: kindHistogram, h: newHistogram(bounds)}
	}).h
}

// sorted returns the registered metrics in name order — exposition must be
// deterministic (golden tests, diffable scrapes).
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
