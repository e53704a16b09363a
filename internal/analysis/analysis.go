// Package analysis provides closed-form performance models for the
// synchronous WDM interconnect, in the spirit of the blocking-probability
// analyses the paper cites ([11] Tripathi & Sivarajan, [13] Ramaswami &
// Sasaki). The simulator is cross-checked against these formulas in
// experiment S8.
//
// Model: an N×N interconnect, k wavelengths per fiber, uniform Bernoulli
// traffic — each of the N·k input channels generates a one-slot packet
// with probability p and addresses a uniform output fiber. The number of
// requests reaching one output fiber in a slot is X ~ Binomial(N·k, p/N),
// and per arrival wavelength X_w ~ Binomial(N, p/N).
//
// Two conversion extremes admit exact slotwise loss formulas:
//
//   - Full range (d = k): all requests are interchangeable, so the fiber
//     grants min(X, k) and the loss rate is E[(X−k)^+] / E[X].
//   - No conversion (d = 1): each output wavelength serves only its own
//     arrivals, granting min(X_w, 1); the loss rate is
//     1 − P(X_w ≥ 1)/E[X_w].
//
// Limited range conversion with 1 < d < k is bounded between the two
// (more conversion never hurts a maximum matching), which package sim's
// S8 experiment verifies against simulation.
package analysis

import (
	"fmt"
	"math"
)

// BinomialPMF returns the probability mass function of Binomial(n, p):
// out[i] = P(X = i) for i in [0, n]. Computed in log space for stability
// at large n.
func BinomialPMF(n int, p float64) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("analysis: negative n %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("analysis: probability %v outside [0,1]", p)
	}
	out := make([]float64, n+1)
	switch p {
	case 0:
		out[0] = 1
		return out, nil
	case 1:
		out[n] = 1
		return out, nil
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	for i := 0; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		out[i] = math.Exp(lgN - lgI - lgNI + float64(i)*lp + float64(n-i)*lq)
	}
	return out, nil
}

// ExpectedOverflow returns E[(X−c)^+] for X distributed by pmf.
func ExpectedOverflow(pmf []float64, c int) float64 {
	var e float64
	for x := c + 1; x < len(pmf); x++ {
		e += float64(x-c) * pmf[x]
	}
	return e
}

// Mean returns E[X] for X distributed by pmf.
func Mean(pmf []float64) float64 {
	var m float64
	for x, p := range pmf {
		m += float64(x) * p
	}
	return m
}

// FullRangeLoss returns the exact slotwise loss rate of one output fiber
// under full range conversion: E[(X−k)^+]/E[X] with X ~ Binomial(N·k, p/N).
// Zero offered load returns zero loss.
func FullRangeLoss(n, k int, load float64) (float64, error) {
	if n <= 0 || k <= 0 {
		return 0, fmt.Errorf("analysis: invalid shape N=%d k=%d", n, k)
	}
	if load == 0 {
		return 0, nil
	}
	pmf, err := BinomialPMF(n*k, load/float64(n))
	if err != nil {
		return 0, err
	}
	mean := Mean(pmf)
	if mean == 0 {
		return 0, nil
	}
	return ExpectedOverflow(pmf, k) / mean, nil
}

// NoConversionLoss returns the exact slotwise loss rate under d = 1 (no
// conversion): per output wavelength, arrivals X_w ~ Binomial(N, p/N)
// compete for one channel, so the loss is 1 − P(X_w ≥ 1)/E[X_w].
func NoConversionLoss(n, k int, load float64) (float64, error) {
	if n <= 0 || k <= 0 {
		return 0, fmt.Errorf("analysis: invalid shape N=%d k=%d", n, k)
	}
	if load == 0 {
		return 0, nil
	}
	p := load / float64(n)
	mean := float64(n) * p
	if mean == 0 {
		return 0, nil
	}
	pNonEmpty := 1 - math.Pow(1-p, float64(n))
	return 1 - pNonEmpty/mean, nil
}

// LimitedRangeLossBounds brackets the loss of limited range conversion
// with degree d: adding conversion reach can only grow maximum matchings,
// so full range is the lower bound and no conversion the upper bound. For
// d = 1 and d = k the bounds collapse to the exact values.
func LimitedRangeLossBounds(n, k, d int, load float64) (lo, hi float64, err error) {
	if d < 1 || d > k {
		return 0, 0, fmt.Errorf("analysis: degree %d outside [1,%d]", d, k)
	}
	lo, err = FullRangeLoss(n, k, load)
	if err != nil {
		return 0, 0, err
	}
	hi, err = NoConversionLoss(n, k, load)
	if err != nil {
		return 0, 0, err
	}
	switch d {
	case 1:
		lo = hi
	case k:
		hi = lo
	}
	return lo, hi, nil
}

// ErlangB returns the Erlang-B blocking probability of an M/M/c/c system
// offered a Erlangs, via the standard numerically stable recursion
// B(0) = 1, B(j) = a·B(j−1) / (j + a·B(j−1)).
//
// In the asynchronous (wavelength routing) mode of the interconnect this
// is exact for two conversion extremes at one output fiber: full range
// conversion is M/M/k/k offered A = λ/µ, and no conversion is k
// independent M/M/1/1 systems each offered A/k (experiment S10).
func ErlangB(c int, a float64) (float64, error) {
	if c < 0 {
		return 0, fmt.Errorf("analysis: negative server count %d", c)
	}
	if a < 0 {
		return 0, fmt.Errorf("analysis: negative offered load %v", a)
	}
	b := 1.0
	for j := 1; j <= c; j++ {
		b = a * b / (float64(j) + a*b)
	}
	return b, nil
}
