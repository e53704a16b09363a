package fault

import (
	"fmt"
	"sync"
	"time"

	"wdmsched/internal/metrics"
	"wdmsched/internal/traffic"
)

// TransportConfig parameterizes frame-level fault injection on the cluster
// transport: every frame independently suffers a drop, a delivery delay,
// and/or a duplication with the given probabilities, driven by a seeded
// RNG so a failure scenario replays exactly. The cluster's correctness
// property is that none of this changes the simulation's results — the
// controller's deadlines, retries and local fallback absorb every injected
// fault — so transport injection exercises the degradation machinery, not
// the schedulers.
type TransportConfig struct {
	// Seed drives the injection RNG.
	Seed uint64
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64
	// Delay is the probability a frame is stalled before delivery.
	Delay float64
	// DelayFor is how long a delayed frame stalls (default 2ms). Set it
	// above the controller's RPC deadline to force deadline misses.
	DelayFor time.Duration
}

// FrameFate is the injector's decision for one frame.
type FrameFate struct {
	Drop      bool
	Duplicate bool
	Delay     time.Duration // 0 = deliver immediately
}

// TransportFaults decides, frame by frame, which injected fault (if any) a
// frame suffers. The cluster controller draws every fate from the one
// goroutine that runs its slots, so the same seeds replay the same faults
// and, with delays well inside the RPC deadline, the same recovery. It is
// safe for concurrent use: draws from several goroutines interleave in
// scheduling order, which moves the faults but never the results, since
// the cluster's results are fault-independent by construction.
type TransportFaults struct {
	mu  sync.Mutex
	rng *traffic.RNG
	cfg TransportConfig

	// Drops, Duplicates and Delays count the faults actually injected;
	// read them live or after the run.
	Drops      metrics.Counter
	Duplicates metrics.Counter
	Delays     metrics.Counter
}

// NewTransportFaults validates the configuration and builds an injector.
func NewTransportFaults(cfg TransportConfig) (*TransportFaults, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", cfg.Drop}, {"Duplicate", cfg.Duplicate}, {"Delay", cfg.Delay}} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("fault: transport %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if cfg.DelayFor < 0 {
		return nil, fmt.Errorf("fault: negative transport delay %v", cfg.DelayFor)
	}
	if cfg.DelayFor == 0 {
		cfg.DelayFor = 2 * time.Millisecond
	}
	return &TransportFaults{rng: traffic.NewRNG(cfg.Seed), cfg: cfg}, nil
}

// Fate draws the next frame's fate.
func (t *TransportFaults) Fate() FrameFate {
	t.mu.Lock()
	var f FrameFate
	if t.cfg.Drop > 0 && t.rng.Bernoulli(t.cfg.Drop) {
		f.Drop = true
	}
	if t.cfg.Duplicate > 0 && t.rng.Bernoulli(t.cfg.Duplicate) {
		f.Duplicate = true
	}
	if t.cfg.Delay > 0 && t.rng.Bernoulli(t.cfg.Delay) {
		f.Delay = t.cfg.DelayFor
	}
	t.mu.Unlock()
	if f.Drop {
		t.Drops.Inc()
	}
	if f.Duplicate {
		t.Duplicates.Inc()
	}
	if f.Delay > 0 {
		t.Delays.Inc()
	}
	return f
}

// Injected reports the total number of faults injected so far.
func (t *TransportFaults) Injected() int64 {
	return t.Drops.Value() + t.Duplicates.Value() + t.Delays.Value()
}
