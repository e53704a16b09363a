package interconnect

import (
	"fmt"
	"math"
	"testing"

	"wdmsched/internal/metrics"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func circ(k, e, f int) wavelength.Conversion {
	return wavelength.MustNew(wavelength.Circular, k, e, f)
}

func mustSwitch(t *testing.T, cfg Config) *Switch {
	t.Helper()
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestNewValidation(t *testing.T) {
	conv := circ(4, 1, 1)
	if _, err := New(Config{N: 0, Conv: conv}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 2, Conv: conv, Scheduler: "bogus"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	for _, bad := range []string{"bogus", "rr"} {
		if _, err := New(Config{N: 2, Conv: conv, Selector: bad}); err == nil {
			t.Fatalf("unknown selector %q accepted", bad)
		}
	}
	for _, name := range SelectorNames {
		if _, err := New(Config{N: 2, Conv: conv, Selector: name}); err != nil {
			t.Fatalf("SelectorNames lists %q, New rejects it: %v", name, err)
		}
	}
}

// TestRunRejectsTraceShapeMismatch replays a trace recorded for a larger
// interconnect into a smaller switch: the shape mismatch must surface as
// an error from Run, never an index panic.
func TestRunRejectsTraceShapeMismatch(t *testing.T) {
	big := traffic.Config{N: 8, K: 8, Seed: 5}
	g, err := traffic.NewBernoulli(big, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.Record(g, big, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]Config{
		"fewer fibers":      {N: 4, Conv: circ(8, 1, 1)},
		"fewer wavelengths": {N: 8, Conv: circ(4, 1, 1)},
	} {
		sw := mustSwitch(t, cfg)
		if _, err := sw.Run(tr.Replay(), len(tr.Slots)); err == nil {
			t.Errorf("%s: out-of-shape trace accepted", name)
		}
	}
}

func TestRunSlotRejectsBadPackets(t *testing.T) {
	sw := mustSwitch(t, Config{N: 2, Conv: circ(4, 1, 1)})
	bad := []traffic.Packet{
		{InputFiber: 5, DestFiber: 0, Wavelength: 0, Duration: 1},
		{InputFiber: 0, DestFiber: 5, Wavelength: 0, Duration: 1},
		{InputFiber: 0, DestFiber: 0, Wavelength: 9, Duration: 1},
		{InputFiber: 0, DestFiber: 0, Wavelength: 0, Duration: 0},
	}
	for _, p := range bad {
		if err := sw.RunSlot([]traffic.Packet{p}); err == nil {
			t.Fatalf("bad packet accepted: %+v", p)
		}
	}
}

// TestRunSlotRejectsDuplicateInputChannel: an input channel is one
// transmitter, so two packets on the same (fiber, wavelength) in one slot
// are a malformed arrival set whatever their destinations. Bound for the
// same output the pair used to panic in the port's request register; for
// different outputs both were granted and the channel's hold counted
// twice. Every engine mode must answer with an error, and the channel
// must be usable again in the next slot.
func TestRunSlotRejectsDuplicateInputChannel(t *testing.T) {
	pairs := map[string][]traffic.Packet{
		"same destination": {
			{InputFiber: 1, Wavelength: 2, DestFiber: 0, Duration: 1},
			{InputFiber: 1, Wavelength: 2, DestFiber: 0, Duration: 1},
		},
		"different destinations": {
			{InputFiber: 1, Wavelength: 2, DestFiber: 0, Duration: 2},
			{InputFiber: 0, Wavelength: 2, DestFiber: 0, Duration: 1},
			{InputFiber: 1, Wavelength: 2, DestFiber: 1, Duration: 2},
		},
	}
	modes := map[string]Config{
		"sequential":  {},
		"distributed": {Distributed: true},
		"classes":     {PriorityClasses: 2},
	}
	for mode, cfg := range modes {
		for name, pkts := range pairs {
			cfg.N, cfg.Conv = 2, circ(4, 1, 1)
			sw := mustSwitch(t, cfg)
			if err := sw.RunSlot(pkts); err == nil {
				t.Errorf("%s, %s: duplicate input channel accepted", mode, name)
			}
			if err := sw.RunSlot(pkts[:1]); err != nil {
				t.Errorf("%s, %s: channel unusable in the next slot: %v", mode, name, err)
			}
			st := sw.Finalize()
			if st.Granted.Value() != 1 {
				t.Errorf("%s, %s: granted %d, want 1 (the well-formed slot's packet)", mode, name, st.Granted.Value())
			}
		}
	}
}

func TestSingleSlotExactGrant(t *testing.T) {
	// Two packets on distinct wavelengths to the same output: both must
	// be granted under d=3 conversion.
	sw := mustSwitch(t, Config{N: 2, Conv: circ(6, 1, 1), ValidateFabric: true})
	pkts := []traffic.Packet{
		{InputFiber: 0, Wavelength: 0, DestFiber: 1, Duration: 1},
		{InputFiber: 1, Wavelength: 3, DestFiber: 1, Duration: 1},
	}
	if err := sw.RunSlot(pkts); err != nil {
		t.Fatal(err)
	}
	st := sw.Finalize()
	if st.Granted.Value() != 2 || st.OutputDropped.Value() != 0 {
		t.Fatalf("granted=%d dropped=%d", st.Granted.Value(), st.OutputDropped.Value())
	}
}

func TestContentionDropsExactlyExcess(t *testing.T) {
	// The paper's intro example as live traffic: 2 on λ1, 3 on λ2, 1 on
	// λ4, all to output 0, k=6 d=3 ⇒ exactly 5 granted, 1 dropped.
	sw := mustSwitch(t, Config{N: 6, Conv: circ(6, 1, 1), ValidateFabric: true})
	pkts := []traffic.Packet{
		{InputFiber: 0, Wavelength: 1, DestFiber: 0, Duration: 1},
		{InputFiber: 1, Wavelength: 1, DestFiber: 0, Duration: 1},
		{InputFiber: 2, Wavelength: 2, DestFiber: 0, Duration: 1},
		{InputFiber: 3, Wavelength: 2, DestFiber: 0, Duration: 1},
		{InputFiber: 4, Wavelength: 2, DestFiber: 0, Duration: 1},
		{InputFiber: 5, Wavelength: 4, DestFiber: 0, Duration: 1},
	}
	if err := sw.RunSlot(pkts); err != nil {
		t.Fatal(err)
	}
	st := sw.Finalize()
	if st.Granted.Value() != 5 || st.OutputDropped.Value() != 1 {
		t.Fatalf("granted=%d dropped=%d, want 5/1", st.Granted.Value(), st.OutputDropped.Value())
	}
}

func TestSequentialDistributedEquivalence(t *testing.T) {
	// The distributed claim: per-port schedulers share no state, so
	// execution on the worker crew must produce identical statistics.
	base := Config{N: 8, Conv: circ(8, 1, 1), Seed: 42, ValidateFabric: true}
	run := func(distributed bool) *Stats {
		cfg := base
		cfg.Distributed = distributed
		sw := mustSwitch(t, cfg)
		gen, err := traffic.NewBernoulli(traffic.Config{N: 8, K: 8, Seed: 7}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, 300)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq := run(false)
	dist := run(true)
	if seq.Granted.Value() != dist.Granted.Value() ||
		seq.OutputDropped.Value() != dist.OutputDropped.Value() ||
		seq.InputBlocked.Value() != dist.InputBlocked.Value() ||
		seq.BusyChannelSlots.Value() != dist.BusyChannelSlots.Value() {
		t.Fatalf("sequential %+d/%d vs distributed %d/%d differ",
			seq.Granted.Value(), seq.OutputDropped.Value(),
			dist.Granted.Value(), dist.OutputDropped.Value())
	}
	for f := range seq.PerInputGranted {
		if seq.PerInputGranted[f] != dist.PerInputGranted[f] {
			t.Fatalf("per-input grants differ at fiber %d", f)
		}
	}
}

func TestConservationLaw(t *testing.T) {
	// Offered = Granted + InputBlocked + OutputDropped must hold exactly.
	for _, hold := range []traffic.HoldingTime{{}, {Mean: 4}} {
		sw := mustSwitch(t, Config{N: 4, Conv: circ(6, 1, 1), Seed: 3})
		gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 6, Seed: 11, Hold: hold}, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, 500)
		if err != nil {
			t.Fatal(err)
		}
		sum := st.Granted.Value() + st.InputBlocked.Value() + st.OutputDropped.Value()
		if sum != st.Offered.Value() {
			t.Fatalf("hold=%v: %d+%d+%d != offered %d", hold,
				st.Granted.Value(), st.InputBlocked.Value(), st.OutputDropped.Value(), st.Offered.Value())
		}
		if st.Offered.Value() == 0 {
			t.Fatal("no traffic generated")
		}
	}
}

func TestLowLoadNoLoss(t *testing.T) {
	// A single flow with no contention must never drop.
	sw := mustSwitch(t, Config{N: 4, Conv: circ(6, 1, 1), ValidateFabric: true})
	for slot := 0; slot < 100; slot++ {
		pkts := []traffic.Packet{{InputFiber: 0, Wavelength: slot % 6, DestFiber: 2, Duration: 1, Slot: slot}}
		if err := sw.RunSlot(pkts); err != nil {
			t.Fatal(err)
		}
	}
	st := sw.Finalize()
	if st.LossRate() != 0 {
		t.Fatalf("loss %v on contention-free traffic", st.LossRate())
	}
	if st.Granted.Value() != 100 {
		t.Fatalf("granted = %d", st.Granted.Value())
	}
}

func TestMultiSlotHoldsBlockChannels(t *testing.T) {
	// One output, k=2, full range. Slot 0: two packets with duration 3
	// occupy both channels; slots 1–2: new packets must be dropped at the
	// output; slot 3: channels free again.
	conv := wavelength.MustNew(wavelength.Full, 2, 0, 0)
	sw := mustSwitch(t, Config{N: 4, Conv: conv, ValidateFabric: true})
	mk := func(in, w int, dur int) traffic.Packet {
		return traffic.Packet{InputFiber: in, Wavelength: w, DestFiber: 0, Duration: dur}
	}
	if err := sw.RunSlot([]traffic.Packet{mk(0, 0, 3), mk(1, 1, 3)}); err != nil {
		t.Fatal(err)
	}
	for slot := 1; slot <= 2; slot++ {
		if err := sw.RunSlot([]traffic.Packet{mk(2, 0, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.RunSlot([]traffic.Packet{mk(2, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	st := sw.Finalize()
	if st.Granted.Value() != 3 { // slot 0 (×2) + slot 3
		t.Fatalf("granted = %d, want 3", st.Granted.Value())
	}
	if st.OutputDropped.Value() != 2 {
		t.Fatalf("dropped = %d, want 2", st.OutputDropped.Value())
	}
	// Channel-slots: 2 channels × 3 slots + 1 × 1 slot = 7.
	if st.BusyChannelSlots.Value() != 7 {
		t.Fatalf("busy channel-slots = %d, want 7", st.BusyChannelSlots.Value())
	}
}

func TestInputBlocking(t *testing.T) {
	// A held input channel cannot launch a new packet mid-transmission.
	conv := wavelength.MustNew(wavelength.Full, 2, 0, 0)
	sw := mustSwitch(t, Config{N: 2, Conv: conv})
	mk := func(dest int, dur int) traffic.Packet {
		return traffic.Packet{InputFiber: 0, Wavelength: 0, DestFiber: dest, Duration: dur}
	}
	if err := sw.RunSlot([]traffic.Packet{mk(0, 3)}); err != nil {
		t.Fatal(err)
	}
	// Same input channel tries a different destination while held.
	if err := sw.RunSlot([]traffic.Packet{mk(1, 1)}); err != nil {
		t.Fatal(err)
	}
	st := sw.Finalize()
	if st.InputBlocked.Value() != 1 {
		t.Fatalf("input blocked = %d, want 1", st.InputBlocked.Value())
	}
	if st.Granted.Value() != 1 {
		t.Fatalf("granted = %d, want 1", st.Granted.Value())
	}
}

func TestDisturbModeReassignsInsteadOfBlocking(t *testing.T) {
	// k=2 non-circular, e=f=0 would be degenerate; use k=3, e=f=1.
	// Slot 0: a duration-3 connection on λ1 lands on some channel.
	// Slot 1: two new λ0/λ2 packets arrive. In no-disturb mode the held
	// channel may block one of them; in disturb mode the held connection
	// can be re-placed so all fit whenever a perfect assignment exists.
	conv := circ(3, 1, 1) // d=3=k → full range fast path; use k=4 instead
	conv = circ(4, 1, 1)
	mk := func(in, w, dest, dur int) traffic.Packet {
		return traffic.Packet{InputFiber: in, Wavelength: w, DestFiber: dest, Duration: dur}
	}
	run := func(disturb bool) *Stats {
		sw := mustSwitch(t, Config{N: 4, Conv: conv, Disturb: disturb, ValidateFabric: true})
		if err := sw.RunSlot([]traffic.Packet{mk(0, 1, 0, 3)}); err != nil {
			t.Fatal(err)
		}
		// Three more packets so that all four channels are needed; the
		// held λ1 connection sits on channel 0 (first-available picks
		// the minus edge), which λ0 needs in the no-disturb case.
		if err := sw.RunSlot([]traffic.Packet{
			mk(1, 0, 0, 1), mk(2, 1, 0, 1), mk(3, 2, 0, 1),
		}); err != nil {
			t.Fatal(err)
		}
		return sw.Finalize()
	}
	noDisturb := run(false)
	disturb := run(true)
	if disturb.Granted.Value() < noDisturb.Granted.Value() {
		t.Fatalf("disturb mode granted %d < no-disturb %d",
			disturb.Granted.Value(), noDisturb.Granted.Value())
	}
	if disturb.Granted.Value() != 4 {
		t.Fatalf("disturb mode granted %d, want all 4", disturb.Granted.Value())
	}
}

func TestFinalizeIsTerminal(t *testing.T) {
	sw := mustSwitch(t, Config{N: 2, Conv: circ(4, 1, 1)})
	sw.Finalize()
	if err := sw.RunSlot(nil); err == nil {
		t.Fatal("RunSlot after Finalize accepted")
	}
	// Finalize is idempotent.
	a := sw.Finalize()
	b := sw.Finalize()
	if a != b {
		t.Fatal("Finalize not idempotent")
	}
}

func TestStatsDerivedQuantities(t *testing.T) {
	st := newStats(2, 4, 1)
	if st.LossRate() != 0 || st.AcceptanceRate() != 0 || st.Throughput(2, 4) != 0 || st.Utilization(2, 4) != 0 {
		t.Fatal("empty stats must be zero")
	}
	st.Slots = 10
	st.Offered.Add(100)
	st.Granted.Add(80)
	st.BusyChannelSlots.Add(40)
	if math.Abs(st.LossRate()-0.2) > 1e-12 {
		t.Fatalf("LossRate = %v", st.LossRate())
	}
	if math.Abs(st.AcceptanceRate()-0.8) > 1e-12 {
		t.Fatalf("AcceptanceRate = %v", st.AcceptanceRate())
	}
	if math.Abs(st.Throughput(2, 4)-1.0) > 1e-12 {
		t.Fatalf("Throughput = %v", st.Throughput(2, 4))
	}
	if math.Abs(st.Utilization(2, 4)-0.5) > 1e-12 {
		t.Fatalf("Utilization = %v", st.Utilization(2, 4))
	}
	st.PerInputGranted[0], st.PerInputGranted[1] = 40, 40
	if math.Abs(st.FairnessJain()-1) > 1e-12 {
		t.Fatalf("Jain = %v", st.FairnessJain())
	}
}

func TestFullRangeBeatsLimitedRangeUnderStress(t *testing.T) {
	// Sanity direction check for experiment S1: at very high load,
	// full range conversion grants at least as much as d=1 (no
	// conversion).
	run := func(conv wavelength.Conversion) int64 {
		sw := mustSwitch(t, Config{N: 4, Conv: conv, Seed: 5})
		gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 8, Seed: 13}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, 200)
		if err != nil {
			t.Fatal(err)
		}
		return st.Granted.Value()
	}
	none := run(circ(8, 0, 0)) // d=1: no conversion
	full := run(wavelength.MustNew(wavelength.Full, 8, 0, 0))
	if full <= none {
		t.Fatalf("full range %d not better than no conversion %d", full, none)
	}
}

func TestSchedulerFlagSelectsAlgorithm(t *testing.T) {
	// Approximation scheduler must not beat the exact one, and must be
	// close (gap ≤ (d−1)/2 per fiber-slot; aggregate gap small).
	run := func(name string) int64 {
		sw := mustSwitch(t, Config{N: 4, Conv: circ(8, 1, 1), Scheduler: name, Seed: 9})
		gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 8, Seed: 17}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, 200)
		if err != nil {
			t.Fatal(err)
		}
		return st.Granted.Value()
	}
	exact := run("break-first-available")
	approx := run("shortest-edge")
	if approx > exact {
		t.Fatalf("approximation %d beat exact %d", approx, exact)
	}
	if float64(approx) < 0.9*float64(exact) {
		t.Fatalf("approximation %d too far below exact %d", approx, exact)
	}
}

func TestHotspotConcentratesLossOnHotFiber(t *testing.T) {
	// With half of all traffic aimed at fiber 0, contention (and loss)
	// concentrates there while the overall conservation law still holds.
	sw := mustSwitch(t, Config{N: 8, Conv: circ(8, 1, 1), Seed: 31})
	gen, err := traffic.NewHotspot(traffic.Config{N: 8, K: 8, Seed: 33}, 0.8, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Run(gen, 400)
	if err != nil {
		t.Fatal(err)
	}
	if st.Granted.Value()+st.OutputDropped.Value()+st.InputBlocked.Value() != st.Offered.Value() {
		t.Fatal("conservation violated under hotspot traffic")
	}
	if st.LossRate() <= 0.05 {
		t.Fatalf("hotspot at load 0.8 should show significant loss, got %v", st.LossRate())
	}
}

func TestBurstyTrafficIntegration(t *testing.T) {
	sw := mustSwitch(t, Config{N: 4, Conv: circ(8, 1, 1), Seed: 35, ValidateFabric: true})
	gen, err := traffic.NewBursty(traffic.Config{N: 4, K: 8, Seed: 37}, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Run(gen, 400)
	if err != nil {
		t.Fatal(err)
	}
	if st.Offered.Value() == 0 || st.Granted.Value() == 0 {
		t.Fatal("bursty run produced no traffic/grants")
	}
	if st.Granted.Value()+st.OutputDropped.Value()+st.InputBlocked.Value() != st.Offered.Value() {
		t.Fatal("conservation violated under bursty traffic")
	}
}

func TestDisturbDistributedEquivalence(t *testing.T) {
	// Disturb-mode rescheduling with multi-slot holds must also be
	// identical across sequential and distributed execution (per-port
	// independence includes the preemption bookkeeping).
	run := func(distributed bool) *Stats {
		sw := mustSwitch(t, Config{
			N: 6, Conv: circ(8, 1, 1), Seed: 39,
			Disturb: true, Distributed: distributed,
		})
		gen, err := traffic.NewBernoulli(traffic.Config{
			N: 6, K: 8, Seed: 41, Hold: traffic.HoldingTime{Mean: 3},
		}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, 300)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq, dist := run(false), run(true)
	if seq.Granted.Value() != dist.Granted.Value() ||
		seq.Preempted.Value() != dist.Preempted.Value() ||
		seq.InputBlocked.Value() != dist.InputBlocked.Value() ||
		seq.OutputDropped.Value() != dist.OutputDropped.Value() {
		t.Fatalf("disturb mode diverged: seq {g=%d p=%d} vs dist {g=%d p=%d}",
			seq.Granted.Value(), seq.Preempted.Value(),
			dist.Granted.Value(), dist.Preempted.Value())
	}
}

func TestFixedPrioritySelectorIsUnfairUnderContention(t *testing.T) {
	run := func(sel string) float64 {
		sw := mustSwitch(t, Config{N: 8, Conv: circ(4, 1, 1), Selector: sel, Seed: 43})
		gen, err := traffic.NewBernoulli(traffic.Config{N: 8, K: 4, Seed: 45}, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, 400)
		if err != nil {
			t.Fatal(err)
		}
		return st.FairnessJain()
	}
	rr := run("round-robin")
	fx := run("fixed-priority")
	if rr < 0.99 {
		t.Fatalf("round-robin Jain = %v, want ≈1", rr)
	}
	if fx >= rr {
		t.Fatalf("fixed-priority (Jain %v) should be less fair than round-robin (%v)", fx, rr)
	}
}

func TestPerChannelBusyConsistent(t *testing.T) {
	sw := mustSwitch(t, Config{N: 4, Conv: circ(6, 1, 1), Seed: 51})
	gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 6, Seed: 53, Hold: traffic.HoldingTime{Mean: 2}}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Run(gen, 200)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, v := range st.PerChannelBusy {
		sum += v
	}
	if sum != st.BusyChannelSlots.Value() {
		t.Fatalf("per-channel busy sums to %d, total %d", sum, st.BusyChannelSlots.Value())
	}
	if sum == 0 {
		t.Fatal("no busy channel-slots recorded")
	}
}

func TestMatchSizeHistogramPopulated(t *testing.T) {
	sw := mustSwitch(t, Config{N: 4, Conv: circ(6, 1, 1), Seed: 47})
	gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 6, Seed: 49}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	var buf []traffic.Packet
	for slot := 0; slot < 100; slot++ {
		buf = gen.Generate(slot, buf[:0])
		if err := sw.RunSlot(buf); err != nil {
			t.Fatal(err)
		}
	}
	// Finalize folds the ports' histograms in with one add per bucket; the
	// result must be what observing every port's every slot again gives.
	replayed := metrics.NewHistogram(sw.K())
	for _, p := range sw.ports {
		for v, c := range p.matchSizes.Buckets {
			for ; c > 0; c-- {
				replayed.Observe(v)
			}
		}
	}
	st := sw.Finalize()
	if got, want := fmt.Sprint(st.MatchSizes.Snapshot()), fmt.Sprint(replayed.Snapshot()); got != want {
		t.Errorf("MatchSizes = %s, replayed per-port observations = %s", got, want)
	}
	// One observation per port per slot.
	if st.MatchSizes.Count() != 4*100 {
		t.Fatalf("histogram count = %d, want 400", st.MatchSizes.Count())
	}
	if st.MatchSizes.Mean() <= 0 {
		t.Fatal("mean match size should be positive at load 0.9")
	}
}

func TestRandomSelectorMode(t *testing.T) {
	sw := mustSwitch(t, Config{N: 4, Conv: circ(6, 1, 1), Selector: "random", Seed: 21, ValidateFabric: true})
	gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 6, Seed: 23}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Run(gen, 200)
	if err != nil {
		t.Fatal(err)
	}
	if st.Granted.Value() == 0 {
		t.Fatal("nothing granted")
	}
	if j := st.FairnessJain(); j < 0.9 {
		t.Fatalf("random selector unfair: Jain = %v", j)
	}
}
