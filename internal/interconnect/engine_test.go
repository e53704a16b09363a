package interconnect

import (
	"runtime"
	"testing"
	"time"

	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// prerecord builds a fixed per-slot packet schedule so alloc tests can
// drive RunSlot without generator allocations inside the measured region.
func prerecord(t testing.TB, n, k, slots int, load float64, seed uint64) [][]traffic.Packet {
	t.Helper()
	gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: seed}, load)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]traffic.Packet, slots)
	for s := range out {
		out[s] = gen.Generate(s, nil)
	}
	return out
}

// TestRunSlotNoAllocsSteadyState is the engine's core guarantee: after
// warm-up, a slot costs zero heap allocations in both execution modes —
// the per-slot result-buffer make and the per-slot goroutine spawn were
// the two defects the persistent engine removes.
func TestRunSlotNoAllocsSteadyState(t *testing.T) {
	for _, mode := range []struct {
		name        string
		distributed bool
	}{{"sequential", false}, {"distributed", true}} {
		t.Run(mode.name, func(t *testing.T) {
			const n, k = 8, 16
			sw := mustSwitch(t, Config{
				N: n, Conv: circ(k, 1, 1), Seed: 5, Distributed: mode.distributed,
			})
			slots := prerecord(t, n, k, 64, 1.0, 9)
			for pass := 0; pass < 4; pass++ { // grow all scratch to steady state
				for _, pkts := range slots {
					if err := sw.RunSlot(pkts); err != nil {
						t.Fatal(err)
					}
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				if err := sw.RunSlot(slots[i%len(slots)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			sw.Finalize()
			if allocs != 0 {
				t.Errorf("steady-state RunSlot allocates %v per slot, want 0", allocs)
			}
		})
	}
}

// TestEngineStatsPopulated checks the run-time metrics layer end to end:
// slot latency histogram, per-port busy accounting, and the sampled
// allocations-per-slot gauge.
// TestSwitchFootprint pins what one New+Finalize lifecycle allocates on the
// hotband256 shape (N=8, k=256, d=41, sequential exact, no faults): the unit
// every sweep point and simulator sample pays. The bounds are 60 % of the
// 474 792 B / 326 objects a switch cost while every port carried its own
// scheduler, fault-only shadow Result and 40-byte held-connection records.
func TestSwitchFootprint(t *testing.T) {
	const maxBytes, maxObjects = 284875, 195
	cfg := Config{N: 8, Conv: circ(256, 20, 20), Seed: 1}
	lifecycle := func() {
		sw, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sw.Finalize()
	}
	lifecycle() // warm package-level state
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		lifecycle()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	objects := (after.Mallocs - before.Mallocs) / runs
	t.Logf("New+Finalize: %d B in %d objects", bytes, objects)
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("New+Finalize allocates %d B in %d objects, want ≤ %d B and ≤ %d objects",
			bytes, objects, maxBytes, maxObjects)
	}
}

func TestEngineStatsPopulated(t *testing.T) {
	for _, distributed := range []bool{false, true} {
		const n, k, slots = 4, 8, 100
		sw := mustSwitch(t, Config{N: n, Conv: circ(k, 1, 1), Seed: 3, Distributed: distributed})
		gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: 7}, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sw.Run(gen, slots)
		if err != nil {
			t.Fatal(err)
		}
		es := st.Engine
		if es == nil {
			t.Fatal("Stats.Engine not populated")
		}
		if es.Distributed != distributed {
			t.Fatalf("Engine.Distributed = %v, want %v", es.Distributed, distributed)
		}
		if es.SlotLatency.Count() != slots {
			t.Fatalf("slot latency count = %d, want %d", es.SlotLatency.Count(), slots)
		}
		if es.SlotLatency.Sum() <= 0 {
			t.Fatal("slot latency sum must be positive")
		}
		if len(es.PortBusy) != n {
			t.Fatalf("PortBusy has %d entries, want %d", len(es.PortBusy), n)
		}
		var busy time.Duration
		for o := range es.PortBusy {
			busy += es.PortBusy[o]
			if f := es.PortBusyFraction(o); f < 0 {
				t.Fatalf("port %d busy fraction %v < 0", o, f)
			}
		}
		if busy <= 0 {
			t.Fatal("no port busy time recorded")
		}
		if es.Speedup() <= 0 {
			t.Fatalf("speedup = %v, want > 0", es.Speedup())
		}
		if es.MemSamples < 1 || !es.AllocsPerSlot.Valid() {
			t.Fatalf("allocation gauge not sampled: samples=%d valid=%v",
				es.MemSamples, es.AllocsPerSlot.Valid())
		}
		if es.AllocsPerSlot.Value() < 0 {
			t.Fatalf("allocs/slot = %v", es.AllocsPerSlot.Value())
		}
	}
}

// withProcs runs the rest of the test at GOMAXPROCS=n, which sizes the
// crew of every distributed switch built meanwhile.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// idle sleeps long enough for every helper to park: a helper holding a
// stale wake token spins through two windows before it stays parked.
func idle() { time.Sleep(10 * spinWindow) }

// awaitGoroutines collects garbage until the goroutine count falls back to
// baseline, and fails if it does not within seconds.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("goroutines: %d, baseline %d — helpers leaked", got, baseline)
	}
}

// crewRun drives a distributed (or sequential) switch over a fixed packet
// schedule; pause, when set, runs before every slot.
func crewRun(t *testing.T, distributed bool, pause func(*Switch)) *Stats {
	t.Helper()
	const n, k = 6, 8
	sw := mustSwitch(t, Config{N: n, Conv: circ(k, 1, 1), Seed: 4, Distributed: distributed})
	for _, pkts := range prerecord(t, n, k, 40, 0.9, 12) {
		if pause != nil {
			pause(sw)
		}
		if err := sw.RunSlot(pkts); err != nil {
			t.Fatal(err)
		}
	}
	return sw.Finalize()
}

// TestCrewWithoutHelpersMatchesSequential: at GOMAXPROCS=1 the crew has no
// helpers and the caller runs every port, with the sequential loop's Stats.
func TestCrewWithoutHelpersMatchesSequential(t *testing.T) {
	withProcs(t, 1)
	sw := mustSwitch(t, Config{N: 4, Conv: circ(8, 1, 1), Distributed: true})
	if h := len(sw.eng.wake); h != 0 {
		t.Fatalf("GOMAXPROCS=1 crew has %d helpers, want 0", h)
	}
	sw.Finalize()
	requireStatsEqual(t, "no helpers", crewRun(t, false, nil), crewRun(t, true, nil))
}

// TestCrewParkedHelpersMatchBackToBack: slots that each find the helpers
// parked (the gap outlasts the spin window) give the same Stats as slots
// run back to back, which the helpers catch spinning.
func TestCrewParkedHelpersMatchBackToBack(t *testing.T) {
	withProcs(t, 4)
	parked := crewRun(t, true, func(sw *Switch) {
		if len(sw.eng.wake) != 3 {
			t.Fatalf("crew has %d helpers, want 3", len(sw.eng.wake))
		}
		idle()
	})
	requireStatsEqual(t, "parked vs back-to-back", crewRun(t, true, nil), parked)
	requireStatsEqual(t, "parked vs sequential", crewRun(t, false, nil), parked)
}

// TestFinalizeStopsWorkers: the crew's helpers must exit at Finalize,
// whether they are spinning on the next epoch or parked — a finalized
// distributed switch leaves no goroutines behind.
func TestFinalizeStopsWorkers(t *testing.T) {
	withProcs(t, 4)
	for _, park := range []bool{false, true} {
		before := runtime.NumGoroutine()
		sw := mustSwitch(t, Config{N: 16, Conv: circ(8, 1, 1), Seed: 1, Distributed: true})
		gen, err := traffic.NewBernoulli(traffic.Config{N: 16, K: 8, Seed: 2}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var buf []traffic.Packet
		for slot := 0; slot < 20; slot++ {
			buf = gen.Generate(slot, buf[:0])
			if err := sw.RunSlot(buf); err != nil {
				t.Fatal(err)
			}
		}
		if park {
			idle()
		}
		sw.Finalize()
		awaitGoroutines(t, before)
		runtime.KeepAlive(sw) // so the cleanup backstop cannot stand in for Finalize
	}
}

// TestDroppedSwitchStopsWorkers: a distributed switch dropped without
// Finalize is stopped by its cleanup once collected.
func TestDroppedSwitchStopsWorkers(t *testing.T) {
	withProcs(t, 4)
	before := runtime.NumGoroutine()
	func() {
		sw := mustSwitch(t, Config{N: 8, Conv: circ(8, 1, 1), Seed: 1, Distributed: true})
		for _, pkts := range prerecord(t, 8, 8, 10, 0.9, 3) {
			if err := sw.RunSlot(pkts); err != nil {
				t.Fatal(err)
			}
		}
		if runtime.NumGoroutine() <= before {
			t.Fatal("distributed switch started no helpers")
		}
	}()
	awaitGoroutines(t, before)
}

// FuzzSeqDistStatsEquivalence is the distributed-claim differential: for
// arbitrary shapes, seeds, loads, holding times, and disturb modes, the
// sequential loop and the worker crew must produce identical
// statistics — counters, per-input grants, per-channel busy slots, and the
// match-size histogram. The word-parallel kernel ("fast") rides the same
// differential: it must match the scalar exact scheduler's statistics
// through either engine, which only holds if its per-slot Results are
// byte-identical.
func FuzzSeqDistStatsEquivalence(f *testing.F) {
	f.Add(uint8(4), uint8(6), uint8(1), uint8(1), uint64(7), uint8(80), uint8(0), false)
	f.Add(uint8(8), uint8(8), uint8(2), uint8(3), uint64(42), uint8(100), uint8(3), false)
	f.Add(uint8(6), uint8(5), uint8(0), uint8(2), uint64(99), uint8(50), uint8(2), true)
	f.Fuzz(func(t *testing.T, n8, k8, e8, f8 uint8, seed uint64, load8, hold8 uint8, disturb bool) {
		n := int(n8)%8 + 1
		k := int(k8)%8 + 1
		e := int(e8) % k
		ff := int(f8) % (k - e)
		load := float64(load8%101) / 100
		var hold traffic.HoldingTime
		if hold8%4 > 0 {
			hold = traffic.HoldingTime{Mean: float64(hold8%4) + 1}
		}
		conv, err := wavelength.New(wavelength.Circular, k, e, ff)
		if err != nil {
			t.Fatalf("decoded invalid conversion: %v", err)
		}
		run := func(distributed bool, sched string) *Stats {
			sw, err := New(Config{
				N: n, Conv: conv, Seed: seed, Scheduler: sched,
				Disturb: disturb, Distributed: distributed,
			})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: seed + 1, Hold: hold}, load)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sw.Run(gen, 60)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}
		a := run(false, "")
		for _, leg := range []struct {
			name string
			b    *Stats
		}{
			{"dist/exact", run(true, "")},
			{"seq/fast", run(false, "fast")},
			{"dist/fast", run(true, "fast")},
		} {
			b := leg.b
			if a.Offered.Value() != b.Offered.Value() ||
				a.Granted.Value() != b.Granted.Value() ||
				a.InputBlocked.Value() != b.InputBlocked.Value() ||
				a.OutputDropped.Value() != b.OutputDropped.Value() ||
				a.Preempted.Value() != b.Preempted.Value() ||
				a.BusyChannelSlots.Value() != b.BusyChannelSlots.Value() {
				t.Fatalf("counters diverged: seq/exact {o=%d g=%d ib=%d od=%d p=%d bs=%d} vs %s {o=%d g=%d ib=%d od=%d p=%d bs=%d}",
					a.Offered.Value(), a.Granted.Value(), a.InputBlocked.Value(),
					a.OutputDropped.Value(), a.Preempted.Value(), a.BusyChannelSlots.Value(),
					leg.name,
					b.Offered.Value(), b.Granted.Value(), b.InputBlocked.Value(),
					b.OutputDropped.Value(), b.Preempted.Value(), b.BusyChannelSlots.Value())
			}
			for f := range a.PerInputGranted {
				if a.PerInputGranted[f] != b.PerInputGranted[f] {
					t.Fatalf("%s: per-input grants diverged at fiber %d: %d vs %d",
						leg.name, f, a.PerInputGranted[f], b.PerInputGranted[f])
				}
			}
			for c := range a.PerChannelBusy {
				if a.PerChannelBusy[c] != b.PerChannelBusy[c] {
					t.Fatalf("%s: per-channel busy diverged at channel %d: %d vs %d",
						leg.name, c, a.PerChannelBusy[c], b.PerChannelBusy[c])
				}
			}
			for v := 0; v <= k; v++ {
				if a.MatchSizes.Bucket(v) != b.MatchSizes.Bucket(v) {
					t.Fatalf("%s: match-size histogram diverged at %d: %d vs %d",
						leg.name, v, a.MatchSizes.Bucket(v), b.MatchSizes.Bucket(v))
				}
			}
		}
	})
}

// TestIdlePortsAreNotTimed: on the hot-band shape (every arrival for port
// 0) an untraced engine reads no clock for the idle ports, so they are
// credited no busy time, while SlotLatency still times every slot's whole
// phase — on the sequential engine a span that contains every port's
// interval. A decision tracer keeps one EvSlotLatency per port per slot.
func TestIdlePortsAreNotTimed(t *testing.T) {
	const n, k, slots = 4, 32, 1000
	hot := make([]traffic.Packet, 8)
	for i := range hot {
		hot[i] = traffic.Packet{InputFiber: i % n, DestFiber: 0, Wavelength: i, Duration: 1}
	}
	run := func(distributed bool, tr *telemetry.DecisionTracer) *EngineStats {
		sw := mustSwitch(t, Config{N: n, Conv: circ(k, 2, 2), Seed: 1,
			Distributed: distributed, Trace: tr})
		for range slots {
			if err := sw.RunSlot(hot); err != nil {
				t.Fatal(err)
			}
		}
		return sw.Finalize().Engine
	}
	for _, distributed := range []bool{false, true} {
		es := run(distributed, nil)
		if es.PortBusy[0] <= 0 {
			t.Errorf("distributed=%v: hot port busy %v, want > 0", distributed, es.PortBusy[0])
		}
		var busy time.Duration
		for o, b := range es.PortBusy {
			busy += b
			if o > 0 && b != 0 {
				t.Errorf("distributed=%v: idle port %d busy %v, want 0", distributed, o, b)
			}
		}
		if c := es.SlotLatency.Count(); c != slots {
			t.Errorf("distributed=%v: %d slot-latency observations, want %d", distributed, c, slots)
		}
		if sum := es.SlotLatency.Sum(); !distributed && sum < busy {
			t.Errorf("sequential: slot latency sum %v < port busy sum %v", sum, busy)
		}

		tr := telemetry.NewDecisionTracer(n, 1<<15)
		run(distributed, tr)
		if d := tr.Dropped(); d != 0 {
			t.Fatalf("tracer dropped %d events", d)
		}
		perPort := make([]int, n)
		for _, ev := range tr.Events() {
			if ev.Kind == telemetry.EvSlotLatency {
				perPort[ev.Lane]++
			}
		}
		for o, c := range perPort {
			if c != slots {
				t.Errorf("distributed=%v traced: port %d emitted %d EvSlotLatency, want %d", distributed, o, c, slots)
			}
		}
	}
}
