// Package stats holds the benchmark's estimators. They work on raw
// samples kept in memory, because metrics.DurationHistogram rounds every
// quantile to a power-of-two bucket edge (65.535 µs, 131.071 µs), which
// hides any change smaller than 2×.
package stats

import (
	"math"
	"sort"
)

// Summary describes a set of block means: the benchmark's timing metric is
// Q1 (see Typical), and IQR/Median says how steady the blocks were.
type Summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

// IQRShare is the interquartile range as a share of the median (0 when the
// median is 0).
func (s Summary) IQRShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// Summarize returns the median and quartiles of xs. The quartiles use the
// exclusive method of Python's statistics.quantiles(xs, n=4), so spreads
// computed here match the ones the acceptance procedure computes.
func Summarize(xs []float64) Summary {
	s := sorted(xs)
	return Summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

// Median returns the median of xs (0 for an empty slice).
func Median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// Typical is the benchmark's estimate of what one operation costs when
// nothing interrupts it: the first quartile of the block means. Stalls only
// ever add time, and on a throttled VM they reach more than half of the
// blocks in bad phases (and more than half of the samples that hold a
// stop-the-world pause), which moves the median between identical runs; the
// first quartile stays in the undisturbed cluster until three quarters of
// the blocks are hit. A change that makes every block slower moves it as
// much as it moves the median.
func Typical(blockMeans []float64) float64 { return quantile(sorted(blockMeans), 0.25) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates at position p·(n+1) (1-based) of the sorted sample,
// clamped to the extremes.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// MinBeyond is how many samples must lie beyond a percentile for it to be
// reported.
const MinBeyond = 10

// Percentile returns the nearest-rank p-th percentile (0 < p < 100) of the
// raw samples. ok is false, and the value must not be reported, when fewer
// than MinBeyond samples lie strictly beyond that rank: a p99 of 200
// samples rests on two of them.
func Percentile(samples []int64, p float64) (v int64, ok bool) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, false
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= MinBeyond
}

// WorstRatio returns the largest ratio between any two values of xs
// (max/min); it is the "worst pairwise ratio" of an A/A comparison. It
// returns +Inf when a value is not positive.
func WorstRatio(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return hi / lo
}
