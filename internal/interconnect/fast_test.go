package interconnect

import (
	"fmt"
	"testing"

	"wdmsched/internal/fault"
	"wdmsched/internal/wavelength"
)

// TestFastSchedulerStatsEquivalence runs the schedulers the default and
// "fast" names build (the word-parallel BFA kernel on circular conversion)
// against the scalar reference named explicitly, at word-boundary k,
// through both engines, with holding times, disturb mode, and a Markov
// fault schedule. Statistics must be identical — which only holds if every
// per-slot Result is byte-identical. The distributed legs, run under -race
// by the race gate, also cover the kernel path's mask/occupancy handoff.
func TestFastSchedulerStatsEquivalence(t *testing.T) {
	for _, tc := range []struct {
		kind    wavelength.Kind
		k, e, f int
		disturb bool
		faults  bool
	}{
		{wavelength.Circular, 63, 2, 1, false, false},
		{wavelength.Circular, 64, 3, 4, true, false},
		{wavelength.Circular, 65, 1, 1, false, true},
		{wavelength.NonCircular, 128, 2, 2, false, true},
		{wavelength.Circular, 129, 4, 3, true, false},
	} {
		name := fmt.Sprintf("%v/k=%d/disturb=%v/faults=%v", tc.kind, tc.k, tc.disturb, tc.faults)
		t.Run(name, func(t *testing.T) {
			conv := wavelength.MustNew(tc.kind, tc.k, tc.e, tc.f)
			mk := func() fault.Injector {
				if !tc.faults {
					return nil
				}
				m, err := fault.NewMarkov(fault.MarkovConfig{
					N: 4, K: tc.k, Seed: 9,
					ConverterFail: 0.02, ConverterRepair: 0.2,
					ChannelDark: 0.01, ChannelRestore: 0.2,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			base := Config{N: 4, Conv: conv, Seed: 31, Disturb: tc.disturb}
			run := func(sched string, distributed bool) *Stats {
				cfg := base
				cfg.Scheduler = sched
				cfg.Distributed = distributed
				cfg.Faults = mk()
				return faultRun(t, cfg, 0.8, 80)
			}
			refName := "break-first-available"
			if tc.kind == wavelength.NonCircular {
				refName = "first-available"
			}
			ref := run(refName, false)
			requireStatsEqual(t, "seq/default", ref, run("", false))
			requireStatsEqual(t, "seq/fast", ref, run("fast", false))
			requireStatsEqual(t, "dist/fast", ref, run("fast", true))
		})
	}
}
