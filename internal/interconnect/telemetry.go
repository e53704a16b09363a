package interconnect

import (
	"strconv"
	"sync/atomic"
	"time"

	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
)

// scrapeView is the copy of every lock-guarded statistic the wdm_*
// collectors read: the counter Snapshot plus the per-class and match-size
// tallies Snapshot does not carry. refreshView fills it once per registry
// pass, so a scrape takes the slot lock once however many series it has,
// and all of its series describe the same slot boundary.
type scrapeView struct {
	snap       Snapshot
	clsOff     []int64
	clsGrant   []int64
	matchSizes metrics.HistogramSnapshot
}

// refreshView copies the live statistics (run totals + Σ port locals −
// unelapsed holds, see Snapshot) into the scrape view under the slot lock.
func (s *Switch) refreshView() {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, st := &s.view, s.stats
	s.snapshotLocked(&v.snap)
	v.clsOff = append(v.clsOff[:0], st.PerClassOffered...)
	v.clsGrant = append(v.clsGrant[:0], st.PerClassGranted...)
	v.matchSizes = st.MatchSizes.Snapshot()
	for _, p := range s.ports {
		for c := range p.clsOff {
			v.clsOff[c] += p.clsOff[c]
			v.clsGrant[c] += p.clsGrant[c]
		}
		v.matchSizes.Merge(p.matchSizes)
	}
}

// registerTelemetry wires every run statistic into the registry under
// wdm_* names. The traffic statistics live in plain memory under the slot
// lock, so their collectors read the scrape view that refreshView copies
// once per pass; the engine and fault-exposure metrics are atomics and are
// read directly.
func (s *Switch) registerTelemetry(r *telemetry.Registry) {
	st := s.stats
	es := st.Engine
	v := &s.view
	r.BeforeSnapshot(s.refreshView)

	r.CounterFunc("wdm_slots_total", "Simulated time slots.", nil, func() int64 { return v.snap.Slots })
	r.CounterFunc("wdm_offered_packets_total", "Packets presented to the interconnect.", nil,
		func() int64 { return v.snap.Offered })
	r.CounterFunc("wdm_granted_packets_total", "New packets that won an output channel.", nil,
		func() int64 { return v.snap.Granted })
	r.CounterFunc("wdm_input_blocked_total", "Packets blocked at a held input channel.", nil,
		func() int64 { return v.snap.InputBlocked })
	r.CounterFunc("wdm_output_dropped_total", "Packets that lost output contention.", nil,
		func() int64 { return v.snap.OutputDropped })
	r.CounterFunc("wdm_preempted_total", "Held connections displaced by disturb-mode rescheduling.", nil,
		func() int64 { return v.snap.Preempted })
	r.CounterFunc("wdm_busy_channel_slots_total", "Output (channel, slot) pairs spent transmitting.", nil,
		func() int64 { return v.snap.BusyChannelSlots })

	nk := float64(s.cfg.N) * float64(s.k)
	r.GaugeFunc("wdm_loss_rate", "Fraction of offered packets not granted.", nil, func() float64 {
		if v.snap.Offered == 0 {
			return 0
		}
		return 1 - float64(v.snap.Granted)/float64(v.snap.Offered)
	})
	r.GaugeFunc("wdm_throughput", "Granted packets per output channel-slot.", nil, func() float64 {
		if v.snap.Slots == 0 {
			return 0
		}
		return float64(v.snap.Granted) / (nk * float64(v.snap.Slots))
	})
	r.GaugeFunc("wdm_utilization", "Busy fraction of output channel-slots.", nil, func() float64 {
		if v.snap.Slots == 0 {
			return 0
		}
		return float64(v.snap.BusyChannelSlots) / (nk * float64(v.snap.Slots))
	})

	// Per-input grants (and the Jain fairness index over them).
	for i := 0; i < s.cfg.N; i++ {
		i := i
		r.CounterFunc("wdm_input_granted_total", "Grants per input fiber.",
			[]telemetry.Label{{Key: "input", Value: strconv.Itoa(i)}},
			func() int64 { return v.snap.PerInput[i] })
	}
	r.GaugeFunc("wdm_fairness_jain", "Jain fairness index over per-input grants.", nil, func() float64 {
		shares := make([]float64, len(v.snap.PerInput))
		for i, g := range v.snap.PerInput {
			shares[i] = float64(g)
		}
		return metrics.Jain(shares)
	})

	for b := 0; b < s.k; b++ {
		b := b
		r.CounterFunc("wdm_channel_busy_slots_total", "Busy slots per output wavelength channel, summed over fibers.",
			[]telemetry.Label{{Key: "channel", Value: strconv.Itoa(b)}},
			func() int64 { return v.snap.PerChannel[b] })
	}

	for c := range st.PerClassOffered {
		c := c
		lbl := []telemetry.Label{{Key: "class", Value: strconv.Itoa(c)}}
		r.CounterFunc("wdm_class_offered_total", "Offered packets per QoS class.", lbl,
			func() int64 { return v.clsOff[c] })
		r.CounterFunc("wdm_class_granted_total", "Granted packets per QoS class.", lbl,
			func() int64 { return v.clsGrant[c] })
	}

	r.HistogramFunc("wdm_match_size", "Per-fiber per-slot matching sizes.", nil,
		func() metrics.HistogramSnapshot { return v.matchSizes })

	// Engine run-time metrics.
	r.GaugeFunc("wdm_engine_distributed", "1 when the worker-pool engine runs the slots, 0 sequential.", nil,
		func() float64 {
			if es.Distributed {
				return 1
			}
			return 0
		})
	r.DurationHistogram("wdm_engine_slot_latency_seconds",
		"Per-slot scheduling-phase wall time.", nil, es.SlotLatency)
	for o := 0; o < s.cfg.N; o++ {
		o := o
		r.GaugeFunc("wdm_engine_port_busy_seconds", "Cumulative scheduling time per output port.",
			[]telemetry.Label{{Key: "port", Value: strconv.Itoa(o)}},
			func() float64 { return es.busy(o).Seconds() })
	}
	r.Gauge("wdm_engine_allocs_per_slot", "Sampled process-wide heap allocations per slot.", nil, &es.AllocsPerSlot)
	r.CounterFunc("wdm_engine_mem_samples_total", "Heap-allocation samples (runtime/metrics reads of /gc/heap/allocs:objects) behind wdm_engine_allocs_per_slot.", nil,
		func() int64 { return atomic.LoadInt64(&es.MemSamples) })

	// Fault exposure, when injection is enabled.
	if fs := st.Fault; fs != nil {
		r.Histogram("wdm_fault_healthy_channels", "Per-slot distribution of healthy output channels.", nil,
			fs.HealthyChannels)
		r.Counter("wdm_fault_degraded_slots_total", "Slots with at least one non-healthy channel.", nil,
			&fs.DegradedSlots)
		r.Counter("wdm_fault_degraded_channel_slots_total", "Channel-slots in any non-healthy state.", nil,
			&fs.DegradedChannelSlots)
		r.Counter("wdm_fault_converter_failed_channel_slots_total", "Channel-slots with a failed converter.", nil,
			&fs.ConverterFailedChannelSlots)
		r.Counter("wdm_fault_dark_channel_slots_total", "Channel-slots spent dark.", nil,
			&fs.DarkChannelSlots)
		r.CounterFunc("wdm_fault_lost_grants_total", "Grants the fault masks cost vs the healthy matching.", nil,
			func() int64 { return v.snap.FaultLostGrants })
		r.CounterFunc("wdm_fault_killed_connections_total", "In-flight connections aborted by faults.", nil,
			func() int64 { return v.snap.FaultKilled })
	}

	// Decision tracer throughput, when tracing is enabled.
	if t := s.cfg.Trace; t != nil {
		r.CounterFunc("wdm_trace_events_emitted_total", "Decision events emitted.", nil, t.Emitted)
		r.CounterFunc("wdm_trace_events_dropped_total", "Decision events overwritten by ring wraparound.", nil, t.Dropped)
	}

	// Flight-recorder health, when a recorder is attached.
	if s.cfg.Recorder != nil {
		s.cfg.Recorder.RegisterTelemetry(r)
	}

	// Slot-latency SLO burn rate: the scheduling phase should finish
	// within slotSLOBudget for at least slotSLOObjective of slots.
	telemetry.RegisterSLO(r, "slot", es.SlotLatency, slotSLOBudget, slotSLOObjective)
}

// slotSLOBudget and slotSLOObjective define the engine's slot-latency SLO
// exposed as wdm_slo_* gauges: 99.9% of scheduling phases within 1ms —
// generous against the measured µs-scale slot times, so a sustained burn
// rate above 1 always signals real scheduling-path trouble rather than
// noise.
const (
	slotSLOBudget    = time.Millisecond
	slotSLOObjective = 0.999
)
