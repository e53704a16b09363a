package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Gauge is a last-value metric: it remembers the most recent sample of a
// quantity that rises and falls (unlike Counter, which only accumulates).
// The engine uses gauges for sampled rates such as allocations per slot.
// Set and Value are safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
	set  atomic.Bool
}

// Set records the current value.
func (g *Gauge) Set(x float64) {
	g.bits.Store(math.Float64bits(x))
	g.set.Store(true)
}

// Value returns the last recorded value (0 before any Set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Valid reports whether the gauge has been Set at least once.
func (g *Gauge) Valid() bool { return g.set.Load() }

// Reset clears the gauge.
func (g *Gauge) Reset() {
	g.bits.Store(0)
	g.set.Store(false)
}

// durationBuckets is the number of power-of-two latency buckets; bucket i
// holds durations whose nanosecond count has bit length i, i.e. bucket 0 is
// exactly 0ns and bucket i ≥ 1 covers [2^(i−1), 2^i) ns. 64 buckets span
// every representable time.Duration.
const durationBuckets = 64

// DurationHistogram is an allocation-free latency histogram with
// power-of-two nanosecond buckets, built for per-slot hot-path timing: one
// Observe is a bit-length computation and three atomic adds (plus a CAS
// loop for the max). Safe for concurrent use. Quantiles are resolved to
// bucket upper bounds (at most 2× the true value), which is plenty to tell
// a 5µs slot from a 500µs one.
type DurationHistogram struct {
	buckets [durationBuckets]int64 // atomic access
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// NewDurationHistogram builds an empty latency histogram.
func NewDurationHistogram() *DurationHistogram { return &DurationHistogram{} }

// Observe records one duration; negative durations count as zero.
func (h *DurationHistogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	atomic.AddInt64(&h.buckets[bits.Len64(uint64(ns))], 1)
	h.count.Add(1)
	h.sum.Add(ns)
	h.raiseMax(ns)
}

// DurationBatch accumulates samples for one DurationHistogram with plain
// arithmetic, for a goroutine that settles many samples between points
// where anyone may look (a scheduling round, a submit frame): Add costs no
// atomic operation, and DurationHistogram.Merge publishes the lot with one
// atomic add per distinct bucket. The zero value is an empty batch. Not
// safe for concurrent use.
type DurationBatch struct {
	buckets [durationBuckets]int64
	touched uint64 // bit b set ⇔ buckets[b] > 0; bucket indices are < 64
	count   int64
	sum     int64 // nanoseconds
	max     int64 // nanoseconds
}

// Add records one duration; negative durations count as zero.
func (b *DurationBatch) Add(d time.Duration) { b.AddN(d, 1) }

// AddN records n samples of the same duration (n ≤ 0 records nothing).
func (b *DurationBatch) AddN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	b.buckets[i] += n
	b.touched |= 1 << uint(i)
	b.count += n
	b.sum += ns * n
	if ns > b.max {
		b.max = ns
	}
}

// Merge publishes b's samples into h — leaving h exactly as if each had
// been Observed — and empties b. Buckets are published before the count,
// as Observe does, so a concurrent Quantile never finds fewer bucketed
// samples than the count it read; an empty batch costs nothing and a
// one-sample batch costs what Observe costs. Safe to call concurrently
// with Observe, other Merges (each with its own batch) and readers.
func (h *DurationHistogram) Merge(b *DurationBatch) {
	if b.count == 0 {
		return
	}
	for m := b.touched; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		atomic.AddInt64(&h.buckets[i], b.buckets[i])
		b.buckets[i] = 0
	}
	h.count.Add(b.count)
	h.sum.Add(b.sum)
	h.raiseMax(b.max)
	b.touched, b.count, b.sum, b.max = 0, 0, 0, 0
}

// raiseMax lifts the recorded maximum to ns if it is larger.
func (h *DurationHistogram) raiseMax(ns int64) {
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *DurationHistogram) Count() int64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *DurationHistogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean returns the average observation (0 with no samples).
func (h *DurationHistogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation.
func (h *DurationHistogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// BucketCount returns the count in power-of-two bucket b (0 ≤ b < 64):
// bucket 0 is exactly 0ns, bucket b ≥ 1 covers [2^(b−1), 2^b) ns.
func (h *DurationHistogram) BucketCount(b int) int64 {
	if b < 0 || b >= durationBuckets {
		return 0
	}
	return atomic.LoadInt64(&h.buckets[b])
}

// NumBuckets returns the number of power-of-two buckets.
func (h *DurationHistogram) NumBuckets() int { return durationBuckets }

// BucketUpperNS returns the inclusive upper bound in nanoseconds of
// bucket b, i.e. the largest duration that lands in it.
func BucketUpperNS(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(b) - 1
}

// Quantile returns an upper bound for the q-quantile (q in [0, 1]): the
// upper edge of the bucket where the cumulative count crosses q, capped at
// the maximum observation. Returns 0 with no samples.
func (h *DurationHistogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	max := h.max.Load()
	var cum int64
	for b := 0; b < durationBuckets; b++ {
		cum += atomic.LoadInt64(&h.buckets[b])
		if cum < target {
			continue
		}
		if b == 0 {
			return 0
		}
		upper := BucketUpperNS(b)
		if upper > max {
			upper = max
		}
		return time.Duration(upper)
	}
	return time.Duration(max)
}

// FractionAbove returns the fraction of observations whose bucket lies
// entirely above d — the error fraction of a latency SLO with budget d,
// resolved to the histogram's power-of-two bucket granularity (an
// observation in d's own bucket counts as within budget). Returns 0 with
// no samples.
func (h *DurationHistogram) FractionAbove(d time.Duration) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	over := bits.Len64(uint64(ns)) // d's own bucket index
	var above int64
	for b := over + 1; b < durationBuckets; b++ {
		above += atomic.LoadInt64(&h.buckets[b])
	}
	return float64(above) / float64(n)
}

// Reset clears the histogram.
func (h *DurationHistogram) Reset() {
	for b := range h.buckets {
		atomic.StoreInt64(&h.buckets[b], 0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// String renders a compact summary for debugging and tables.
func (h *DurationHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50≤%v p95≤%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Max())
}
