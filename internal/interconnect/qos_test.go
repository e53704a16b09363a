package interconnect

import (
	"testing"

	"wdmsched/internal/traffic"
)

func prioritizedGen(t *testing.T, n, k int, load float64, probs []float64, seed uint64) traffic.Generator {
	t.Helper()
	base, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: seed}, load)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.WithPriorities(base, probs, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func TestPriorityClassesValidation(t *testing.T) {
	conv := circ(6, 1, 1)
	if _, err := New(Config{N: 2, Conv: conv, PriorityClasses: 2, Disturb: true}); err == nil {
		t.Fatal("classes + disturb accepted")
	}
	if _, err := New(Config{N: 2, Conv: conv, PriorityClasses: 2, Scheduler: "shortest-edge"}); err == nil {
		t.Fatal("classes + approximate scheduler accepted")
	}
	// The per-class scheduler is always NewExact's, so a name is accepted
	// exactly when it builds that scheduler: the aliases do, the scalar
	// reference — a different implementation — does not.
	for _, name := range []string{"", "exact", "fast", "fast-break-first-available"} {
		if _, err := New(Config{N: 2, Conv: conv, PriorityClasses: 2, Scheduler: name}); err != nil {
			t.Fatalf("valid QoS config with scheduler %q rejected: %v", name, err)
		}
	}
	if _, err := New(Config{N: 2, Conv: conv, PriorityClasses: 2, Scheduler: "break-first-available"}); err == nil {
		t.Fatal("classes + scalar reference scheduler accepted")
	}
}

// TestPriorityClassesIsolateHighClass: under overload, the high class's
// loss must stay far below the low class's — the strict-priority property,
// end to end through the switch.
func TestPriorityClassesIsolateHighClass(t *testing.T) {
	const n, k = 6, 8
	sw := mustSwitch(t, Config{N: n, Conv: circ(k, 1, 1), PriorityClasses: 2, Seed: 3, ValidateFabric: true})
	gen := prioritizedGen(t, n, k, 1.0, []float64{0.2, 0.8}, 7)
	st, err := sw.Run(gen, 400)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerClassOffered[0] == 0 || st.PerClassOffered[1] == 0 {
		t.Fatal("both classes must see traffic")
	}
	if st.PerClassOffered[0]+st.PerClassOffered[1] != st.Offered.Value() {
		t.Fatal("per-class offered does not sum to total")
	}
	if st.PerClassGranted[0]+st.PerClassGranted[1] != st.Granted.Value() {
		t.Fatal("per-class granted does not sum to total")
	}
	high, low := st.ClassLossRate(0), st.ClassLossRate(1)
	if high >= low {
		t.Fatalf("high class loss %v not below low class loss %v", high, low)
	}
	if high > 0.02 {
		t.Fatalf("high class loss %v too large at 20%% share", high)
	}
}

// TestPriorityClassesConservation: the standard conservation law holds in
// QoS mode too.
func TestPriorityClassesConservation(t *testing.T) {
	const n, k = 4, 6
	sw := mustSwitch(t, Config{N: n, Conv: circ(k, 1, 1), PriorityClasses: 3, Seed: 9})
	gen := prioritizedGen(t, n, k, 0.9, []float64{0.3, 0.3, 0.4}, 11)
	st, err := sw.Run(gen, 300)
	if err != nil {
		t.Fatal(err)
	}
	if st.Granted.Value()+st.OutputDropped.Value()+st.InputBlocked.Value() != st.Offered.Value() {
		t.Fatal("conservation violated in QoS mode")
	}
}

// TestPriorityClassesDistributedEquivalence: QoS mode is per-port local,
// so distributed execution must match sequential exactly.
func TestPriorityClassesDistributedEquivalence(t *testing.T) {
	run := func(distributed bool) *Stats {
		sw := mustSwitch(t, Config{
			N: 4, Conv: circ(8, 1, 1), PriorityClasses: 2,
			Seed: 13, Distributed: distributed,
		})
		gen := prioritizedGen(t, 4, 8, 0.9, []float64{0.5, 0.5}, 17)
		st, err := sw.Run(gen, 200)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	seq, dist := run(false), run(true)
	for c := 0; c < 2; c++ {
		if seq.PerClassGranted[c] != dist.PerClassGranted[c] {
			t.Fatalf("class %d grants differ: %d vs %d", c, seq.PerClassGranted[c], dist.PerClassGranted[c])
		}
	}
}

// TestUnknownClassClampsToLowest: a packet with Priority beyond the
// configured class count is treated as lowest priority, not dropped.
func TestUnknownClassClampsToLowest(t *testing.T) {
	sw := mustSwitch(t, Config{N: 2, Conv: circ(4, 1, 1), PriorityClasses: 2})
	pkts := []traffic.Packet{
		{InputFiber: 0, Wavelength: 0, DestFiber: 0, Duration: 1, Priority: 9},
	}
	if err := sw.RunSlot(pkts); err != nil {
		t.Fatal(err)
	}
	st := sw.Finalize()
	if st.PerClassGranted[1] != 1 {
		t.Fatalf("clamped packet not granted in lowest class: %+v", st.PerClassGranted)
	}
}

func TestClassLossRateBounds(t *testing.T) {
	st := newStats(2, 4, 2)
	if st.ClassLossRate(0) != 0 || st.ClassLossRate(-1) != 0 || st.ClassLossRate(9) != 0 {
		t.Fatal("degenerate class loss must be 0")
	}
	st.PerClassOffered[0] = 10
	st.PerClassGranted[0] = 7
	if got := st.ClassLossRate(0); got < 0.299 || got > 0.301 {
		t.Fatalf("loss = %v", got)
	}
}
