package traffic

import (
	"fmt"
	"math"
)

// SelfSimilar models each input fiber as the aggregate of many independent
// per-user on–off sources — the Willinger/Taqqu/Sherman construction: users
// with heavy-tailed (Pareto) ON periods and geometric OFF periods
// superpose into long-range-dependent, self-similar aggregate load. The
// number of simultaneously active users on a fiber drives how many of the
// fiber's k wavelengths carry a packet that slot (capped at k); each
// wavelength keeps a sticky destination for as long as it stays busy,
// redrawn whenever it goes idle and comes back — so busy periods look like
// flows, not independent coin flips.
//
// Per-user state is kept as a calendar of pending ON/OFF transitions in a
// binary min-heap per fiber: O(users) memory, O(log users) per transition,
// and zero allocations in steady state (every user always has exactly one
// scheduled transition, so the preallocated heap never grows).
type SelfSimilar struct {
	cfg   Config
	load  float64
	alpha float64
	users int

	rng     *RNG
	meanOn  float64
	meanOff float64

	fibers []ssFiber
}

// ssFiber is one input fiber's aggregation state.
type ssFiber struct {
	events []uint64 // min-heap of slot<<1|kind; kind 1 = user turns ON
	active int      // users currently ON
	lastOn int      // wavelengths emitting last slot (for sticky dests)
	dest   []int    // per-wavelength sticky destination
}

const (
	ssEvOff = 0 // scheduled transition ON→OFF
	ssEvOn  = 1 // scheduled transition OFF→ON
)

// NewSelfSimilar builds the aggregated workload: users independent on–off
// sources per input fiber, Pareto(alpha) ON periods, geometric OFF periods
// sized so the expected number of active users per fiber is load·k. load
// must be in (0, 1), alpha in (1.05, ∞) (alpha < 2 for the self-similar
// regime), and users ≥ k so the fiber can actually reach full load.
func NewSelfSimilar(cfg Config, load, alpha float64, users int) (*SelfSimilar, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if load <= 0 || load >= 1 {
		return nil, fmt.Errorf("traffic: selfsimilar load %v outside (0,1)", load)
	}
	if alpha <= 1.05 {
		return nil, fmt.Errorf("traffic: selfsimilar alpha %v must exceed 1.05 (finite mean)", alpha)
	}
	if users < cfg.K {
		return nil, fmt.Errorf("traffic: selfsimilar users %d < k=%d cannot reach full load", users, cfg.K)
	}
	// Per-user stationary ON probability so E[active] = load·k.
	pOn := load * float64(cfg.K) / float64(users)
	meanOn := paretoCeilMean(alpha)
	meanOff := meanOn * (1 - pOn) / pOn
	if meanOff < 1 {
		return nil, fmt.Errorf("traffic: selfsimilar load %v needs more than %d users for alpha %v",
			load, users, alpha)
	}
	g := &SelfSimilar{
		cfg: cfg, load: load, alpha: alpha, users: users,
		rng: NewRNG(cfg.Seed), meanOn: meanOn, meanOff: meanOff,
		fibers: make([]ssFiber, cfg.N),
	}
	cycle := int(math.Ceil(meanOn + meanOff))
	for i := range g.fibers {
		f := &g.fibers[i]
		f.events = make([]uint64, 0, users)
		f.dest = make([]int, cfg.K)
		for w := range f.dest {
			f.dest[w] = g.rng.Intn(cfg.N)
		}
		// Spread user phases uniformly over one mean cycle: each user
		// starts OFF with its first ON transition at a uniform offset, so
		// the aggregate ramps to stationarity without a synchronized
		// thundering herd at slot 0.
		for u := 0; u < users; u++ {
			f.push(uint64(g.rng.Intn(cycle))<<1 | ssEvOn)
		}
	}
	return g, nil
}

// push inserts an event into the fiber's min-heap.
func (f *ssFiber) push(ev uint64) {
	f.events = append(f.events, ev)
	i := len(f.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if f.events[parent] <= f.events[i] {
			break
		}
		f.events[parent], f.events[i] = f.events[i], f.events[parent]
		i = parent
	}
}

// pop removes and returns the earliest event.
func (f *ssFiber) pop() uint64 {
	top := f.events[0]
	last := len(f.events) - 1
	f.events[0] = f.events[last]
	f.events = f.events[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(f.events) && f.events[l] < f.events[smallest] {
			smallest = l
		}
		if r < len(f.events) && f.events[r] < f.events[smallest] {
			smallest = r
		}
		if smallest == i {
			return top
		}
		f.events[i], f.events[smallest] = f.events[smallest], f.events[i]
		i = smallest
	}
}

// Name implements Generator.
func (g *SelfSimilar) Name() string {
	return fmt.Sprintf("selfsimilar(load=%.2f,alpha=%.2f,users=%d)", g.load, g.alpha, g.users)
}

// Load reports the configured per-channel load target.
func (g *SelfSimilar) Load() float64 { return g.load }

// Generate implements Generator.
func (g *SelfSimilar) Generate(slot int, dst []Packet) []Packet {
	uslot := uint64(slot)
	for in := range g.fibers {
		f := &g.fibers[in]
		// Fire every transition due at or before this slot.
		for len(f.events) > 0 && f.events[0]>>1 <= uslot {
			ev := f.pop()
			if ev&1 == ssEvOn {
				f.active++
				on := g.rng.Pareto(g.alpha)
				if on > 1<<40 {
					on = 1 << 40
				}
				f.push((uslot+uint64(math.Ceil(on)))<<1 | ssEvOff)
			} else {
				f.active--
				f.push((uslot+uint64(g.rng.Geometric(g.meanOff)))<<1 | ssEvOn)
			}
		}
		emit := f.active
		if emit > g.cfg.K {
			emit = g.cfg.K
		}
		// Sticky destinations: wavelengths newly busy this slot pick a
		// fresh destination; wavelengths busy since last slot keep theirs.
		for w := f.lastOn; w < emit; w++ {
			f.dest[w] = g.rng.Intn(g.cfg.N)
		}
		f.lastOn = emit
		for w := 0; w < emit; w++ {
			dst = append(dst, Packet{
				InputFiber: in,
				Wavelength: w,
				DestFiber:  f.dest[w],
				Duration:   g.cfg.Hold.draw(g.rng),
				Slot:       slot,
			})
		}
	}
	return dst
}

// Diurnal modulates another generator with a load curve: packets are
// thinned with time-varying probability so the offered load follows
// floor + (1−floor)·(½ − ½·cos(2π·slot/period)) — the trough at slot 0,
// the peak half a period in. This models the day/night cycle of an
// aggregate of users in one timezone; thinning preserves the burst
// structure of the underlying process within each phase of the curve.
type Diurnal struct {
	inner  Generator
	period int
	floor  float64
	rng    *RNG
}

// WithDiurnal wraps gen with a diurnal load curve of the given period in
// slots and trough fraction floor in [0, 1] (1 = no modulation).
func WithDiurnal(gen Generator, period int, floor float64, seed uint64) (*Diurnal, error) {
	if period < 2 {
		return nil, fmt.Errorf("traffic: diurnal period %d must be ≥ 2", period)
	}
	if floor < 0 || floor > 1 {
		return nil, fmt.Errorf("traffic: diurnal floor %v outside [0,1]", floor)
	}
	return &Diurnal{inner: gen, period: period, floor: floor, rng: NewRNG(seed)}, nil
}

// Name implements Generator.
func (g *Diurnal) Name() string {
	return fmt.Sprintf("diurnal(%s,period=%d,floor=%.2f)", g.inner.Name(), g.period, g.floor)
}

// Level returns the modulation factor in [floor, 1] at the given slot.
func (g *Diurnal) Level(slot int) float64 {
	phase := 2 * math.Pi * float64(slot%g.period) / float64(g.period)
	return g.floor + (1-g.floor)*(0.5-0.5*math.Cos(phase))
}

// Generate implements Generator.
func (g *Diurnal) Generate(slot int, dst []Packet) []Packet {
	start := len(dst)
	dst = g.inner.Generate(slot, dst)
	keep := g.Level(slot)
	// Thin in place: each packet survives with probability keep.
	out := start
	for i := start; i < len(dst); i++ {
		if g.rng.Bernoulli(keep) {
			dst[out] = dst[i]
			out++
		}
	}
	return dst[:out]
}

var (
	_ Generator = (*SelfSimilar)(nil)
	_ Generator = (*Diurnal)(nil)
)
