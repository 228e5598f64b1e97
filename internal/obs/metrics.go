// Package obs is TradeFL's stdlib-only telemetry subsystem: structured
// logging (log/slog with per-component loggers), a lock-cheap metrics
// registry (counters, gauges, fixed-bucket histograms with Prometheus-text
// exposition), span tracing recording wall-time trees per request, batch
// and solve while tracing is on, a flight ring of rare events, and an
// opt-in HTTP diagnostics server serving /metrics, /healthz, /tracez,
// /flightz and net/http/pprof.
//
// Hot-path cost model: every metric update is one or two atomic operations
// on a pre-resolved pointer — no map lookups, no locks, no allocation —
// so solver inner loops can record without measurably perturbing the
// benchmarks guarded by scripts/bench-compare.sh. A span nobody records is
// a nil pointer: with tracing off, Span allocates nothing and End is a nil
// check.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n < 0 is a programming error; it is not checked on the hot
// path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down. Add is a CAS loop, so
// it also serves as a float accumulator (e.g. cumulative busy seconds).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets with upper bounds
// `bounds` (strictly increasing) plus an implicit +Inf bucket, and tracks
// the running sum and count.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    Gauge
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// TimeBuckets are the default upper bounds (seconds) for wall-time
// histograms: 10µs to ~40s in ×4 steps.
var TimeBuckets = ExpBuckets(1e-5, 4, 12)

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor× the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: invalid ExpBuckets parameters")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// metricKind discriminates registry entries.
type metricKind int

const (
	kindCounter metricKind = iota + 1
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// LabelPair is one constant metric label (validated at registration,
// value escaped at exposition time).
type LabelPair struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// entry is one registered metric time series (name + constant labels).
type entry struct {
	name   string
	help   string
	kind   metricKind
	labels []LabelPair // sorted by key; nil for unlabeled metrics
	ctr    *Counter
	gau    *Gauge
	hist   *Histogram
}

// metricNameRE / labelNameRE are the Prometheus exposition-format grammars
// for metric and label names. Values are free-form (escaped on write);
// names are validated at registration, where a violation is an init-time
// programming error and panics.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// canonicalLabels sorts a copy of labels by key and returns it with the
// registry key suffix that makes (name, labels) unique.
func canonicalLabels(labels []LabelPair) ([]LabelPair, string) {
	if len(labels) == 0 {
		return nil, ""
	}
	cp := append([]LabelPair(nil), labels...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Key < cp[j].Key })
	var b strings.Builder
	for _, l := range cp {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return cp, b.String()
}

// Registry holds named metrics. Registration takes a lock; the returned
// metric pointers are then updated lock-free. Re-registering a name returns
// the existing metric (the first help string wins); re-registering with a
// different kind panics, as that is an init-time programming error.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Default is the process-wide registry all package-level metrics live in.
var Default = NewRegistry()

func (r *Registry) register(name, help string, kind metricKind, labels ...LabelPair) *entry {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sorted, suffix := canonicalLabels(labels)
	for _, l := range sorted {
		if !labelNameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: metric %q has invalid label name %q", name, l.Key))
		}
	}
	key := name + suffix
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind, labels: sorted}
	switch kind {
	case kindCounter:
		e.ctr = &Counter{}
	case kindGauge:
		e.gau = &Gauge{}
	case kindHistogram:
		e.hist = &Histogram{}
	}
	r.entries[key] = e
	return e
}

// Counter returns the counter registered under name, creating it if absent.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter).ctr
}

// Gauge returns the gauge registered under name, creating it if absent.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge).gau
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if absent (bounds of an existing histogram are
// kept).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	e := r.register(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.hist.counts == nil {
		if len(bounds) == 0 {
			bounds = TimeBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not increasing", name))
			}
		}
		e.hist.bounds = append([]float64(nil), bounds...)
		e.hist.counts = make([]atomic.Int64, len(bounds)+1)
	}
	return e.hist
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name, help string) *Counter { return Default.Counter(name, help) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name, help string) *Gauge { return Default.Gauge(name, help) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default.Histogram(name, help, bounds)
}

// LabeledCounter returns the counter registered under name with the given
// constant labels, creating it if absent. Each distinct label set is its
// own time series; label values may contain any bytes (escaped at
// exposition), label names are validated like metric names.
func (r *Registry) LabeledCounter(name, help string, labels ...LabelPair) *Counter {
	return r.register(name, help, kindCounter, labels...).ctr
}

// NewLabeledCounter registers a labeled counter in the Default registry.
func NewLabeledCounter(name, help string, labels ...LabelPair) *Counter {
	return Default.LabeledCounter(name, help, labels...)
}

// BucketCount is one cumulative histogram bucket of a snapshot.
type BucketCount struct {
	// UpperBound is the inclusive upper bound (math.Inf(1) for the last).
	UpperBound float64 `json:"upperBound"`
	// Count is the cumulative count of observations ≤ UpperBound.
	Count int64 `json:"count"`
}

// Sample is a point-in-time copy of one metric.
type Sample struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Help string `json:"help,omitempty"`
	// Labels holds the constant labels of the series (sorted by key).
	Labels []LabelPair `json:"labels,omitempty"`
	// Value holds the counter count or gauge value.
	Value float64 `json:"value,omitempty"`
	// Count, Sum and Buckets are set for histograms.
	Count   int64         `json:"count,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns a deep copy of every metric, sorted by name. Later
// metric updates do not affect a snapshot already taken.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	type keyed struct {
		key string
		e   *entry
	}
	entries := make([]keyed, 0, len(r.entries))
	for k, e := range r.entries {
		entries = append(entries, keyed{strings.TrimPrefix(k, e.name), e})
	}
	r.mu.Unlock()
	// Sort by (name, label suffix) rather than the raw map key so every
	// series of one metric family stays contiguous even when one family
	// name is a prefix of another (the exposition format requires it).
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].e.name != entries[j].e.name {
			return entries[i].e.name < entries[j].e.name
		}
		return entries[i].key < entries[j].key
	})
	out := make([]Sample, 0, len(entries))
	for _, ke := range entries {
		e := ke.e
		s := Sample{Name: e.name, Kind: e.kind.String(), Help: e.help, Labels: e.labels}
		switch e.kind {
		case kindCounter:
			s.Value = float64(e.ctr.Value())
		case kindGauge:
			s.Value = e.gau.Value()
		case kindHistogram:
			h := e.hist
			if h.counts == nil {
				break
			}
			s.Sum = h.Sum()
			var cum int64
			s.Buckets = make([]BucketCount, 0, len(h.bounds)+1)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				s.Buckets = append(s.Buckets, BucketCount{UpperBound: b, Count: cum})
			}
			cum += h.counts[len(h.bounds)].Load()
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
			s.Count = cum
		}
		out = append(out, s)
	}
	return out
}

// Find returns the sample with the given name from a snapshot, or false.
func Find(samples []Sample, name string) (Sample, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s, true
		}
	}
	return Sample{}, false
}
