package interconnect

import (
	"strings"
	"sync"
	"testing"
	"time"

	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// engineConfigs returns cfg once per slot engine: the sequential loop, the
// worker crew and the remote (batch) path through an in-process scheduler.
func engineConfigs(t testing.TB, cfg Config) map[string]Config {
	pool, remote := cfg, cfg
	pool.Distributed = true
	remote.Remote = newLocalBatch(t, cfg.Conv)
	return map[string]Config{"sequential": cfg, "pool": pool, "remote": remote}
}

// TestRejectedSlotLeavesNoTrace: RunSlot returns an error for a malformed
// arrival set only after it has walked the packets before the offending
// one. Those may include packets on held input channels, and the slot that
// was refused must not have counted them or traced their rejects.
func TestRejectedSlotLeavesNoTrace(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 6, 1, 1)
	held := []traffic.Packet{
		{InputFiber: 0, Wavelength: 1, DestFiber: 2, Duration: 5},
		{InputFiber: 3, Wavelength: 4, DestFiber: 1, Duration: 5},
	}
	malformed := map[string]traffic.Packet{
		"out-of-shape":    {InputFiber: 1, Wavelength: 6, DestFiber: 0, Duration: 1},
		"zero-duration":   {InputFiber: 1, Wavelength: 2, DestFiber: 0, Duration: 0},
		"second-on-input": {InputFiber: 3, Wavelength: 4, DestFiber: 0, Duration: 1},
	}
	for engine, cfg := range engineConfigs(t, Config{N: 4, Conv: conv, Seed: 1}) {
		for kind, bad := range malformed {
			t.Run(engine+"/"+kind, func(t *testing.T) {
				cfg := cfg
				cfg.Trace = telemetry.NewDecisionTracer(cfg.N, 1<<8)
				sw := mustSwitch(t, cfg)
				defer sw.Finalize()
				if err := sw.RunSlot(held); err != nil {
					t.Fatal(err)
				}
				var before, after Snapshot
				sw.Snapshot(&before)
				if before.Granted != 2 {
					t.Fatalf("set-up granted %d connections, want 2", before.Granted)
				}
				emitted := cfg.Trace.Emitted()

				// Both held channels offer again (valid, to be blocked), then
				// the malformed packet fails the slot.
				slot := append(append([]traffic.Packet{}, held...), bad)
				if err := sw.RunSlot(slot); err == nil {
					t.Fatal("malformed slot accepted")
				}
				sw.Snapshot(&after)
				if d := before.Diff(&after); d != "" {
					t.Errorf("rejected slot changed the counters: %s", d)
				}
				if got := cfg.Trace.Emitted(); got != emitted {
					t.Errorf("rejected slot emitted %d trace events", got-emitted)
				}

				// The same blocked packets in a well-formed slot are counted
				// and traced, once each.
				if err := sw.RunSlot(held); err != nil {
					t.Fatal(err)
				}
				sw.Snapshot(&after)
				if after.Slots != before.Slots+1 || after.Offered != before.Offered+2 || after.InputBlocked != 2 {
					t.Errorf("after the valid retry: slots %d offered %d input-blocked %d, want %d %d 2",
						after.Slots, after.Offered, after.InputBlocked, before.Slots+1, before.Offered+2)
				}
				rejects := 0
				for _, ev := range cfg.Trace.Events() {
					if ev.Kind == telemetry.EvReject && ev.Reason == telemetry.ReasonInputBlocked {
						rejects++
						if ev.Slot != before.Slots {
							t.Errorf("input-blocked reject stamped slot %d, want %d", ev.Slot, before.Slots)
						}
					}
				}
				if rejects != 2 {
					t.Errorf("%d input-blocked reject events, want 2", rejects)
				}
			})
		}
	}
}

// scrapeSeries indexes one registry pass by series name, summing the
// labelled series of a name.
func scrapeSeries(ms []telemetry.Metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		if strings.HasPrefix(m.Name, "wdm_") {
			out[m.Name] += m.Value
		}
	}
	return out
}

// TestReadersUnderSlotLock hammers a running switch with Snapshot and
// registry scrapes from other goroutines (run it under -race): port
// statistics are plain memory now, so every reader must go through the slot
// lock, and what it sees must be a slot boundary — conserved, monotone, and
// within one scrape the same boundary for every series.
func TestReadersUnderSlotLock(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 16, 2, 2)
	for _, distributed := range []bool{false, true} {
		name := "sequential"
		if distributed {
			name = "distributed"
		}
		t.Run(name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			sw := mustSwitch(t, Config{N: 6, Conv: conv, Seed: 9, Distributed: distributed, Telemetry: reg})
			gen, err := traffic.NewBernoulli(traffic.Config{
				N: 6, K: 16, Seed: 10, Hold: traffic.HoldingTime{Mean: 3},
			}, 0.8)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var readers sync.WaitGroup
			var snaps, scrapes int
			readers.Add(2)
			go func() { // Switch.Snapshot
				defer readers.Done()
				var snap Snapshot
				var lastSlots, lastOffered int64
				for {
					select {
					case <-stop:
						return
					default:
					}
					sw.Snapshot(&snap)
					snaps++
					if msg := snap.Conserved(); msg != "" {
						t.Errorf("snapshot at slot %d: %s", snap.Slots, msg)
						return
					}
					if snap.Slots < lastSlots || snap.Offered < lastOffered {
						t.Errorf("snapshot went backwards: slots %d→%d offered %d→%d",
							lastSlots, snap.Slots, lastOffered, snap.Offered)
						return
					}
					lastSlots, lastOffered = snap.Slots, snap.Offered
				}
			}()
			go func() { // a /metrics pass
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					s := scrapeSeries(reg.Snapshot())
					scrapes++
					if got := s["wdm_granted_packets_total"] + s["wdm_input_blocked_total"] + s["wdm_output_dropped_total"]; got != s["wdm_offered_packets_total"] {
						t.Errorf("scrape at slot %v: offered %v != granted+blocked+dropped %v",
							s["wdm_slots_total"], s["wdm_offered_packets_total"], got)
						return
					}
					if s["wdm_input_granted_total"] != s["wdm_granted_packets_total"] {
						t.Errorf("scrape at slot %v: Σ per-input grants %v != granted %v",
							s["wdm_slots_total"], s["wdm_input_granted_total"], s["wdm_granted_packets_total"])
						return
					}
					if s["wdm_channel_busy_slots_total"] != s["wdm_busy_channel_slots_total"] {
						t.Errorf("scrape at slot %v: Σ per-channel busy %v != busy channel-slots %v",
							s["wdm_slots_total"], s["wdm_channel_busy_slots_total"], s["wdm_busy_channel_slots_total"])
						return
					}
				}
			}()

			var buf []traffic.Packet
			for slot := 0; slot < 4000; slot++ {
				buf = gen.Generate(slot, buf[:0])
				if err := sw.RunSlot(buf); err != nil {
					t.Fatal(err)
				}
			}
			// Finalize with holds in flight while the readers are still at it:
			// the merge must not show through either.
			st := sw.Finalize()
			close(stop)
			readers.Wait()
			if snaps == 0 || scrapes == 0 {
				t.Fatalf("readers made %d snapshots and %d scrapes; the hammer did not overlap the run", snaps, scrapes)
			}

			var snap Snapshot
			sw.Snapshot(&snap)
			if snap.Slots != int64(st.Slots) || snap.Offered != st.Offered.Value() ||
				snap.Granted != st.Granted.Value() || snap.BusyChannelSlots != st.BusyChannelSlots.Value() {
				t.Errorf("snapshot after Finalize {slots %d offered %d granted %d busy %d} != Stats {%d %d %d %d}",
					snap.Slots, snap.Offered, snap.Granted, snap.BusyChannelSlots,
					st.Slots, st.Offered.Value(), st.Granted.Value(), st.BusyChannelSlots.Value())
			}
			for b, v := range snap.PerChannel {
				if v != st.PerChannelBusy[b] {
					t.Errorf("snapshot after Finalize: channel %d busy %d, Stats %d", b, v, st.PerChannelBusy[b])
				}
			}
			if s := scrapeSeries(reg.Snapshot()); s["wdm_busy_channel_slots_total"] != float64(st.BusyChannelSlots.Value()) {
				t.Errorf("scrape after Finalize: busy channel-slots %v, Stats %d",
					s["wdm_busy_channel_slots_total"], st.BusyChannelSlots.Value())
			}
		})
	}
}

// TestScrapeTakesSlotLockOnce: a registry pass copies the switch's
// statistics under the slot lock once, up front; no collector takes the
// lock again, or a scrape of N+k+20 series could wait out that many slots.
// A hook that runs after the switch's own and keeps the slot lock for the
// rest of the pass would deadlock any collector that tried.
func TestScrapeTakesSlotLockOnce(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 8, 1, 1)
	reg := telemetry.NewRegistry()
	sw := mustSwitch(t, Config{N: 4, Conv: conv, Seed: 2, Telemetry: reg, PriorityClasses: 2})
	defer sw.Finalize()
	gen, err := traffic.NewBernoulli(traffic.Config{N: 4, K: 8, Seed: 3, Hold: traffic.HoldingTime{Mean: 2}}, 0.9)
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
	reg.BeforeSnapshot(sw.mu.Lock)
	done := make(chan []telemetry.Metric, 1)
	go func() { done <- reg.Snapshot() }()
	select {
	case ms := <-done:
		sw.mu.Unlock()
		if got := scrapeSeries(ms)["wdm_slots_total"]; got != 20 {
			t.Errorf("scrape read %v slots, want 20", got)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a collector blocked on the slot lock: the scrape takes it more than once")
	}
}
