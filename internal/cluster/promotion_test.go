package cluster

import (
	"testing"

	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// TestPromotedKernelSwitchEquivalence is the switch-level gate for making
// the word-parallel kernel the implementation of "exact": on circular
// shapes, the default scheduler name, its alias "fast" and the scalar
// Table 3 reference named explicitly must end a run with identical
// Snapshots and Stats, across every way the switch drives a scheduler —
// plain, disturb mode, converter-failed and dark channels, strict-priority
// classes, the worker crew, and two in-process cluster nodes.
func TestPromotedKernelSwitchEquivalence(t *testing.T) {
	a1, _ := startNode(t, "tcp")
	a2, _ := startNode(t, "unix")
	addrs := []string{a1, a2}
	const n, slots = 4, 120

	for _, sh := range []struct{ k, e, f int }{{16, 1, 1}, {65, 3, 2}} {
		conv := wavelength.MustNew(wavelength.Circular, sh.k, sh.e, sh.f)
		markov := func() fault.Injector {
			inj, err := fault.NewMarkov(fault.MarkovConfig{
				N: n, K: sh.k, Seed: 11,
				ConverterFail: 0.05, ConverterRepair: 0.2,
				ChannelDark: 0.03, ChannelRestore: 0.2,
			})
			if err != nil {
				t.Fatal(err)
			}
			return inj
		}
		for _, mode := range []struct {
			name    string
			cfg     interconnect.Config
			faults  bool
			remote  bool
			classes bool
		}{
			{name: "plain"},
			{name: "disturb", cfg: interconnect.Config{Disturb: true}},
			{name: "faults", faults: true},
			{name: "classes", cfg: interconnect.Config{PriorityClasses: 3}, classes: true},
			{name: "distributed", cfg: interconnect.Config{Distributed: true}, faults: true},
			{name: "remote", remote: true, faults: true},
		} {
			t.Run(conv.String()+"/"+mode.name, func(t *testing.T) {
				run := func(sched string) (*interconnect.Snapshot, *interconnect.Stats) {
					cfg := mode.cfg
					cfg.N, cfg.Conv, cfg.Seed, cfg.Scheduler = n, conv, 5, sched
					if mode.faults {
						cfg.Faults = markov()
					}
					if mode.remote {
						nodeSched := sched
						if nodeSched == "" {
							nodeSched = "exact" // the controller has no default name
						}
						ctrl, err := NewController(ControllerConfig{
							Addrs: addrs, N: n, Conv: conv, Scheduler: nodeSched, Seed: 5,
						})
						if err != nil {
							t.Fatal(err)
						}
						defer ctrl.Close()
						cfg.Remote = ctrl
					}
					sw, err := interconnect.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					var gen traffic.Generator
					gen, err = traffic.NewBernoulli(traffic.Config{
						N: n, K: sh.k, Seed: 6, Hold: traffic.HoldingTime{Mean: 2},
					}, 0.9)
					if err != nil {
						t.Fatal(err)
					}
					if mode.classes {
						if gen, err = traffic.WithPriorities(gen, []float64{0.3, 0.3, 0.4}, 7); err != nil {
							t.Fatal(err)
						}
					}
					var buf []traffic.Packet
					for s := 0; s < slots; s++ {
						buf = gen.Generate(s, buf[:0])
						if err := sw.RunSlot(buf); err != nil {
							t.Fatal(err)
						}
					}
					snap := new(interconnect.Snapshot)
					sw.Snapshot(snap)
					if msg := snap.Conserved(); msg != "" {
						t.Fatalf("scheduler %q: %s", sched, msg)
					}
					st := sw.Finalize()
					if mode.remote && st.Cluster.LocalFallbackItems.Value() != 0 {
						t.Fatalf("scheduler %q: healthy cluster fell back %d times", sched, st.Cluster.LocalFallbackItems.Value())
					}
					return snap, st
				}
				// Strict priority always runs NewExact per class and rejects
				// the reference by name; core's
				// TestPrioritySchedulerMatchesReferenceInner holds that leg
				// to the reference instead.
				ref := "break-first-available"
				if mode.classes {
					ref = "exact"
				}
				wantSnap, wantStats := run(ref)
				if wantStats.Granted.Value() == 0 {
					t.Fatal("reference run granted nothing")
				}
				for _, sched := range []string{"", "fast"} {
					snap, st := run(sched)
					if d := wantSnap.Diff(snap); d != "" {
						t.Fatalf("scheduler %q vs %q: snapshot diverged: %s", sched, ref, d)
					}
					requireStatsEqual(t, mode.name+"/"+sched, wantStats, st)
				}
			})
		}
	}
}
