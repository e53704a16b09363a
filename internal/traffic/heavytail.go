package traffic

import (
	"fmt"
	"math"
	"sort"
)

// zipfCDF precomputes the cumulative distribution of a Zipf law over n
// ranks: weight(r) ∝ 1/(r+1)^s for rank r in [0, n). s = 0 degenerates to
// the uniform distribution. Rank 0 is the most popular value.
type zipfCDF struct {
	cum []float64
}

func newZipfCDF(n int, s float64) zipfCDF {
	cum := make([]float64, n)
	total := 0.0
	for r := 0; r < n; r++ {
		total += math.Pow(float64(r+1), -s)
		cum[r] = total
	}
	for r := range cum {
		cum[r] /= total
	}
	cum[n-1] = 1 // absorb rounding
	return zipfCDF{cum: cum}
}

// draw samples a rank in [0, len(cum)).
func (z zipfCDF) draw(rng *RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cum, u)
}

// paretoCeilMean returns E[ceil(X)] for X ~ Pareto(alpha, 1):
// E[ceil(X)] = Σ_{n≥0} P(ceil(X) > n) = 1 + Σ_{n≥1} n^(−alpha) = 1 + ζ(alpha).
// The zeta sum is evaluated directly with an Euler–Maclaurin tail
// correction, accurate to well under a slot for alpha ≥ 1.05.
func paretoCeilMean(alpha float64) float64 {
	const cut = 1 << 14
	sum := 0.0
	for n := 1; n <= cut; n++ {
		sum += math.Pow(float64(n), -alpha)
	}
	// Tail: ∫_{cut}^∞ x^(−alpha) dx + ½·cut^(−alpha).
	sum += math.Pow(cut, 1-alpha)/(alpha-1) + 0.5*math.Pow(cut, -alpha)
	return 1 + sum
}

// HeavyTail is heavy-tailed on–off traffic with skewed destinations: each
// input channel alternates between ON bursts whose length is a discretized
// Pareto(alpha) draw — infinite variance for alpha < 2, so burst sizes have
// no typical scale — and geometric OFF gaps sized so the stationary
// per-channel load matches the configured target. Every burst addresses
// one destination fiber drawn from a Zipf(zipf) popularity law over the N
// outputs (rank 0 = fiber 0 is the most popular), the skewed demand shape
// of light-trail and grooming workloads.
type HeavyTail struct {
	cfg    Config
	load   float64
	alpha  float64
	zipf   float64
	rng    *RNG
	dests  zipfCDF
	onRem  []int // per channel: remaining ON slots (0 = OFF)
	offRem []int // per channel: remaining OFF slots
	dest   []int // per channel: current burst destination
	meanOn float64
}

// NewHeavyTail builds the heavy-tailed workload. load is the per-channel
// stationary load in (0, 1); alpha > 1 is the Pareto tail index of the
// burst lengths (1 < alpha < 2 gives the infinite-variance regime);
// zipf ≥ 0 is the destination skew exponent (0 = uniform).
func NewHeavyTail(cfg Config, load, alpha, zipf float64) (*HeavyTail, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("traffic: heavytail load %v outside (0,1)", load)
	}
	if alpha <= 1.05 {
		return nil, fmt.Errorf("traffic: heavytail alpha %v must exceed 1.05 (finite mean)", alpha)
	}
	if zipf < 0 {
		return nil, fmt.Errorf("traffic: negative zipf exponent %v", zipf)
	}
	meanOn := paretoCeilMean(alpha)
	meanOff := meanOn * (1 - load) / load
	if meanOff < 1 {
		return nil, fmt.Errorf("traffic: heavytail load %v too high for alpha %v (max %.3f)",
			load, alpha, meanOn/(meanOn+1))
	}
	n := cfg.N * cfg.K
	g := &HeavyTail{
		cfg: cfg, load: load, alpha: alpha, zipf: zipf,
		rng:   NewRNG(cfg.Seed),
		dests: newZipfCDF(cfg.N, zipf),
		onRem: make([]int, n), offRem: make([]int, n), dest: make([]int, n),
		meanOn: meanOn,
	}
	// Start each channel in (approximate) stationarity: ON with the
	// stationary probability, with a fresh cycle otherwise. Residual
	// lengths of heavy-tailed bursts have no finite mean for alpha < 2,
	// so a fresh draw — not a residual draw — keeps the warm-up bias
	// bounded.
	for ch := range g.onRem {
		if g.rng.Bernoulli(load) {
			g.onRem[ch] = g.burstLen()
			g.dest[ch] = g.dests.draw(g.rng)
		} else {
			g.offRem[ch] = g.rng.Geometric(meanOff)
		}
	}
	return g, nil
}

// burstLen draws one discretized Pareto burst length ≥ 1.
func (g *HeavyTail) burstLen() int {
	x := g.rng.Pareto(g.alpha)
	// Guard the (astronomically rare) overflow of the float→int ceil.
	if x > 1<<40 {
		x = 1 << 40
	}
	return int(math.Ceil(x))
}

// Name implements Generator.
func (g *HeavyTail) Name() string {
	return fmt.Sprintf("heavytail(load=%.2f,alpha=%.2f,zipf=%.2f)", g.load, g.alpha, g.zipf)
}

// Generate implements Generator.
func (g *HeavyTail) Generate(slot int, dst []Packet) []Packet {
	meanOff := g.meanOn * (1 - g.load) / g.load
	for in := 0; in < g.cfg.N; in++ {
		for w := 0; w < g.cfg.K; w++ {
			ch := in*g.cfg.K + w
			if g.onRem[ch] == 0 {
				if g.offRem[ch] > 0 {
					g.offRem[ch]-- // this slot is silent
					continue
				}
				// OFF gap exhausted: a new burst starts this slot.
				g.onRem[ch] = g.burstLen()
				g.dest[ch] = g.dests.draw(g.rng)
			}
			dst = append(dst, Packet{
				InputFiber: in,
				Wavelength: w,
				DestFiber:  g.dest[ch],
				Duration:   g.cfg.Hold.draw(g.rng),
				Slot:       slot,
			})
			g.onRem[ch]--
			if g.onRem[ch] == 0 {
				g.offRem[ch] = g.rng.Geometric(meanOff)
			}
		}
	}
	return dst
}

var _ Generator = (*HeavyTail)(nil)
