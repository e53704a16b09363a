// Package telemetry provides the observability layer for the simulator: a
// metric registry that unifies the primitives in internal/metrics behind
// named, labeled, concurrency-safe registration; Prometheus-text and JSON
// exposition; an opt-in HTTP server with pprof and expvar endpoints; and
// an allocation-free per-slot scheduling decision tracer.
//
// The registry is pull-based: registering a metric stores a collector
// closure, and Snapshot() invokes every collector to produce a consistent
// point-in-time view. Collectors read atomically-updated primitives, so a
// scrape can run while the simulation hot path is writing; state that is
// guarded by a lock instead is copied once per pass by a BeforeSnapshot
// hook and read from that copy.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"wdmsched/internal/metrics"
)

// Kind classifies a registered metric for exposition.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
	KindSummary
)

// String returns the Prometheus type name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindSummary:
		return "summary"
	}
	return "untyped"
}

// Label is one name/value pair attached to a metric series.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Bucket is one non-cumulative histogram bucket: Count observations with
// value ≤ Upper (and greater than the previous bucket's Upper). The
// infinite bucket is implicit — a Metric's Count covers all observations —
// so Upper is always finite and the snapshot is JSON-safe.
type Bucket struct {
	Upper float64 `json:"upper"`
	Count int64   `json:"count"`
}

// Metric is a point-in-time sample of one registered series.
type Metric struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Kind    string   `json:"kind"`
	Labels  []Label  `json:"labels,omitempty"`
	Value   float64  `json:"value"`             // counter/gauge value; summary mean
	Count   int64    `json:"count,omitempty"`   // histogram/summary observation count
	Sum     float64  `json:"sum,omitempty"`     // histogram sum of observations
	Stddev  float64  `json:"stddev,omitempty"`  // summary only
	Buckets []Bucket `json:"buckets,omitempty"` // histogram only, non-cumulative
}

// entry is one registered series: static identity plus a collector that
// fills in the live sample.
type entry struct {
	name    string
	help    string
	kind    Kind
	labels  []Label
	key     string // name + canonical label string, for duplicate detection
	collect func(*Metric)
}

// Registry holds named metric series. All methods are safe for concurrent
// use. Registering the same name+labels twice panics: duplicate series
// indicate a wiring bug and would silently shadow each other otherwise.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	seen    map[string]struct{}
	before  []func()

	// pass serializes Snapshot passes, so what a BeforeSnapshot hook
	// prepared is read only by the collectors of the same pass.
	pass sync.Mutex
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{seen: make(map[string]struct{})}
}

// labelKey renders labels canonically for duplicate detection and sorting.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// register validates identity and stores the collector.
func (r *Registry) register(name, help string, kind Kind, labels []Label, collect func(*Metric)) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	cp := make([]Label, len(labels))
	copy(cp, labels)
	key := name + "{" + labelKey(cp) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.seen[key]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %s", key))
	}
	r.seen[key] = struct{}{}
	r.entries = append(r.entries, &entry{
		name: name, help: help, kind: kind, labels: cp, key: key, collect: collect,
	})
}

// CounterFunc registers a counter whose value is produced by fn at scrape
// time. fn must be safe to call concurrently with the simulation.
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() int64) {
	r.register(name, help, KindCounter, labels, func(m *Metric) {
		m.Value = float64(fn())
	})
}

// Counter registers an existing metrics.Counter.
func (r *Registry) Counter(name, help string, labels []Label, c *metrics.Counter) {
	r.CounterFunc(name, help, labels, c.Value)
}

// GaugeFunc registers a gauge produced by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	r.register(name, help, KindGauge, labels, func(m *Metric) {
		m.Value = fn()
	})
}

// Gauge registers an existing metrics.Gauge.
func (r *Registry) Gauge(name, help string, labels []Label, g *metrics.Gauge) {
	r.GaugeFunc(name, help, labels, g.Value)
}

// HistogramFunc registers a histogram whose snapshot is produced by fn at
// scrape time; use it to merge per-port histograms into one series.
func (r *Registry) HistogramFunc(name, help string, labels []Label, fn func() metrics.HistogramSnapshot) {
	r.register(name, help, KindHistogram, labels, func(m *Metric) {
		s := fn()
		m.Count = s.Count
		m.Sum = float64(s.Sum)
		m.Buckets = m.Buckets[:0]
		for v, c := range s.Buckets {
			if c != 0 {
				m.Buckets = append(m.Buckets, Bucket{Upper: float64(v), Count: c})
			}
		}
	})
}

// Histogram registers an existing metrics.Histogram.
func (r *Registry) Histogram(name, help string, labels []Label, h *metrics.Histogram) {
	r.HistogramFunc(name, help, labels, h.Snapshot)
}

// DurationHistogram registers an existing metrics.DurationHistogram; the
// series is exposed in seconds with power-of-two bucket bounds.
func (r *Registry) DurationHistogram(name, help string, labels []Label, h *metrics.DurationHistogram) {
	r.register(name, help, KindHistogram, labels, func(m *Metric) {
		m.Count = h.Count()
		m.Sum = h.Sum().Seconds()
		m.Buckets = m.Buckets[:0]
		for b := 0; b < h.NumBuckets()-1; b++ { // top bucket folds into +Inf
			if c := h.BucketCount(b); c != 0 {
				m.Buckets = append(m.Buckets, Bucket{
					Upper: float64(metrics.BucketUpperNS(b)) / 1e9,
					Count: c,
				})
			}
		}
	})
}

// Welford registers an existing metrics.Welford as a summary: the metric
// value is the running mean, with count and standard deviation alongside.
func (r *Registry) Welford(name, help string, labels []Label, w *metrics.Welford) {
	r.register(name, help, KindSummary, labels, func(m *Metric) {
		m.Value = w.Mean()
		m.Count = w.N()
		m.Stddev = w.Stddev()
	})
}

// BeforeSnapshot registers fn to run once at the start of every Snapshot
// pass, before any collector. A component whose series all derive from
// one lock-guarded state uses it to copy that state once per scrape — one
// lock acquisition instead of one per series, and series that agree with
// each other. Passes are serialized, so collectors may read what fn
// prepared without further synchronization; neither fn nor a collector may
// call Snapshot.
func (r *Registry) BeforeSnapshot(fn func()) {
	r.mu.Lock()
	r.before = append(r.before, fn)
	r.mu.Unlock()
}

// Snapshot samples every registered series, sorted by name then labels so
// the output is deterministic and series of one name are contiguous.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	before := r.before
	r.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].name != entries[j].name {
			return entries[i].name < entries[j].name
		}
		return entries[i].key < entries[j].key
	})
	out := make([]Metric, len(entries))
	r.pass.Lock()
	defer r.pass.Unlock()
	for _, fn := range before {
		fn()
	}
	for i, e := range entries {
		m := &out[i]
		m.Name, m.Help, m.Kind, m.Labels = e.name, e.help, e.kind.String(), e.labels
		e.collect(m)
	}
	return out
}

// Len returns the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}
