// Package metrics provides the measurement primitives the simulator and
// the experiment harness report with: counters, streaming mean/variance,
// histograms, batch-mean confidence intervals, and table rendering (ASCII
// and CSV).
//
// Counter, Gauge, Histogram and DurationHistogram are lock-free and safe
// for concurrent use: writers update them with atomic operations, so a
// telemetry scraper can read a metric while the simulation hot path is
// still writing it (readers may observe a value mid-update — e.g. a
// histogram whose total momentarily disagrees with its bucket sum by one —
// but never tear or race). Welford guards its multi-word state with a
// mutex instead; it lives off the per-slot hot path.
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for concurrent
// use.
type Counter struct{ n atomic.Int64 }

// Add increments the counter by d (d ≥ 0).
func (c *Counter) Add(d int64) {
	if d < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.n.Add(d)
}

// Inc increments by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Ratio returns c/other, or 0 when other is zero.
func (c *Counter) Ratio(other *Counter) float64 {
	o := other.Value()
	if o == 0 {
		return 0
	}
	return float64(c.Value()) / float64(o)
}

// Welford accumulates a streaming mean and variance (Welford's algorithm),
// numerically stable for long simulations. A mutex makes it safe for
// concurrent use; unlike the atomic primitives it must not be copied after
// first use.
type Welford struct {
	mu   sync.Mutex
	n    int64
	mean float64
	m2   float64
}

// Observe adds a sample.
func (w *Welford) Observe(x float64) {
	w.mu.Lock()
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
	w.mu.Unlock()
}

// N returns the sample count.
func (w *Welford) N() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Mean returns the sample mean (0 with no samples).
func (w *Welford) Mean() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mean
}

// variance is the unbiased sample variance; callers hold w.mu.
func (w *Welford) variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Variance returns the unbiased sample variance (0 with < 2 samples).
func (w *Welford) Variance() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.variance()
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return math.Sqrt(w.variance())
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean (0 with < 2 samples). Simulation runs feed batch
// means into a Welford to get credible intervals despite autocorrelation.
func (w *Welford) CI95() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2 {
		return 0
	}
	return 1.96 * math.Sqrt(w.variance()) / math.Sqrt(float64(w.n))
}

// Reset clears the accumulator.
func (w *Welford) Reset() {
	w.mu.Lock()
	w.n, w.mean, w.m2 = 0, 0, 0
	w.mu.Unlock()
}

// Histogram counts integer-valued observations in unit buckets
// [0, 1, …, max]; larger values land in the overflow bucket. Observe and
// the accessors are safe for concurrent use; a reader that races a writer
// sees each word atomically but may catch the histogram mid-observation.
type Histogram struct {
	buckets  []int64 // atomic access
	overflow atomic.Int64
	total    atomic.Int64
	sum      atomic.Int64
}

// NewHistogram builds a histogram for values 0..max.
func NewHistogram(max int) *Histogram {
	if max < 0 {
		panic("metrics: negative histogram max")
	}
	return &Histogram{buckets: make([]int64, max+1)}
}

// Observe records a value (negative values panic: they indicate a
// simulator bug).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		panic("metrics: negative histogram observation")
	}
	if v < len(h.buckets) {
		atomic.AddInt64(&h.buckets[v], 1)
	} else {
		h.overflow.Add(1)
	}
	h.total.Add(1)
	h.sum.Add(int64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Bucket returns the count at value v (overflow excluded).
func (h *Histogram) Bucket(v int) int64 {
	if v < 0 || v >= len(h.buckets) {
		return 0
	}
	return atomic.LoadInt64(&h.buckets[v])
}

// Max returns the largest in-range value the histogram can hold.
func (h *Histogram) Max() int { return len(h.buckets) - 1 }

// Overflow returns the count of observations above max.
func (h *Histogram) Overflow() int64 { return h.overflow.Load() }

// Mean returns the average observation (overflow values counted at their
// true magnitude via sum).
func (h *Histogram) Mean() float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(total)
}

// Quantile returns the smallest in-range value v with
// P(X ≤ v) ≥ q. Overflowed mass counts as above-range; if the quantile
// falls in the overflow, it returns len(buckets) (i.e. max+1).
func (h *Histogram) Quantile(q float64) int {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for v := range h.buckets {
		cum += atomic.LoadInt64(&h.buckets[v])
		if cum >= target {
			return v
		}
	}
	return len(h.buckets)
}

// Reset zeroes all buckets and totals.
func (h *Histogram) Reset() {
	for v := range h.buckets {
		atomic.StoreInt64(&h.buckets[v], 0)
	}
	h.overflow.Store(0)
	h.total.Store(0)
	h.sum.Store(0)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, for merging
// per-port histograms into a switch-wide view at telemetry-scrape time.
type HistogramSnapshot struct {
	Buckets  []int64
	Overflow int64
	Count    int64
	Sum      int64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets:  make([]int64, len(h.buckets)),
		Overflow: h.overflow.Load(),
		Count:    h.total.Load(),
		Sum:      h.sum.Load(),
	}
	for v := range h.buckets {
		s.Buckets[v] = atomic.LoadInt64(&h.buckets[v])
	}
	return s
}

// AddSnapshot folds o into the histogram in O(buckets), leaving it exactly
// as if every value o recorded had been Observed again. Bucket ranges must
// match.
func (h *Histogram) AddSnapshot(o HistogramSnapshot) {
	if len(o.Buckets) != len(h.buckets) {
		panic(fmt.Sprintf("metrics: adding a %d-bucket snapshot to a %d-bucket histogram",
			len(o.Buckets), len(h.buckets)))
	}
	for v, c := range o.Buckets {
		if c != 0 {
			atomic.AddInt64(&h.buckets[v], c)
		}
	}
	h.overflow.Add(o.Overflow)
	h.total.Add(o.Count)
	h.sum.Add(o.Sum)
}

// Merge adds o into s. Bucket ranges must match unless one side is empty.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Buckets == nil {
		s.Buckets = make([]int64, len(o.Buckets))
	}
	if len(s.Buckets) != len(o.Buckets) {
		panic(fmt.Sprintf("metrics: merging histograms with %d and %d buckets",
			len(s.Buckets), len(o.Buckets)))
	}
	for v := range o.Buckets {
		s.Buckets[v] += o.Buckets[v]
	}
	s.Overflow += o.Overflow
	s.Count += o.Count
	s.Sum += o.Sum
}

// Jain computes Jain's fairness index over non-negative shares:
// (Σx)² / (n·Σx²), 1.0 meaning perfectly fair. Used by the tie-break
// fairness ablation.
func Jain(shares []float64) float64 {
	if len(shares) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range shares {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(shares)) * sq)
}

// Series is a named sequence of (x, y) points, one figure line.
type Series struct {
	Name   string
	X, Y   []float64
	YErr   []float64 // optional CI half-widths, same length as Y or nil
	XLabel string
	YLabel string
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// AddErr appends a point with an error bar.
func (s *Series) AddErr(x, y, yerr float64) {
	s.Add(x, y)
	for len(s.YErr) < len(s.Y)-1 {
		s.YErr = append(s.YErr, 0)
	}
	s.YErr = append(s.YErr, yerr)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// String renders the series as "name: (x,y) …" for debugging.
func (s *Series) String() string {
	out := s.Name + ":"
	for i := range s.X {
		out += fmt.Sprintf(" (%g,%g)", s.X[i], s.Y[i])
	}
	return out
}
