package interconnect

import (
	"strconv"
	"sync/atomic"
	"time"

	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
)

// registerTelemetry wires every run statistic into the registry under
// wdm_* names. Port-local counters are accumulated locally during the run
// and moved into the Stats totals at Finalize, so each traffic collector
// reads totals + Σ port locals — a formula that stays correct before,
// during, and after the merge because mergeInto swaps the locals to zero
// as it folds them in.
func (s *Switch) registerTelemetry(r *telemetry.Registry) {
	st := s.stats
	es := st.Engine

	// live sums a switch-level base counter with the port-local field
	// selected by sel.
	live := func(base *metrics.Counter, sel func(*outputPort) *int64) func() int64 {
		return func() int64 {
			v := base.Value()
			for _, p := range s.ports {
				v += atomic.LoadInt64(sel(p))
			}
			return v
		}
	}
	offered := live(&st.Offered, func(p *outputPort) *int64 { return &p.offered })
	granted := live(&st.Granted, func(p *outputPort) *int64 { return &p.granted })
	busy := live(&st.BusyChannelSlots, func(p *outputPort) *int64 { return &p.busyslots })

	r.CounterFunc("wdm_slots_total", "Simulated time slots.", nil, s.slotsDone.Load)
	r.CounterFunc("wdm_offered_packets_total", "Packets presented to the interconnect.", nil, offered)
	r.CounterFunc("wdm_granted_packets_total", "New packets that won an output channel.", nil, granted)
	r.Counter("wdm_input_blocked_total", "Packets blocked at a held input channel.", nil, &st.InputBlocked)
	r.CounterFunc("wdm_output_dropped_total", "Packets that lost output contention.", nil,
		live(&st.OutputDropped, func(p *outputPort) *int64 { return &p.outputDropped }))
	r.CounterFunc("wdm_preempted_total", "Held connections displaced by disturb-mode rescheduling.", nil,
		live(&st.Preempted, func(p *outputPort) *int64 { return &p.preempted }))
	r.CounterFunc("wdm_busy_channel_slots_total", "Output (channel, slot) pairs spent transmitting.", nil, busy)

	nk := float64(s.cfg.N) * float64(s.k)
	r.GaugeFunc("wdm_loss_rate", "Fraction of offered packets not granted.", nil, func() float64 {
		o := offered()
		if o == 0 {
			return 0
		}
		return 1 - float64(granted())/float64(o)
	})
	r.GaugeFunc("wdm_throughput", "Granted packets per output channel-slot.", nil, func() float64 {
		slots := s.slotsDone.Load()
		if slots == 0 {
			return 0
		}
		return float64(granted()) / (nk * float64(slots))
	})
	r.GaugeFunc("wdm_utilization", "Busy fraction of output channel-slots.", nil, func() float64 {
		slots := s.slotsDone.Load()
		if slots == 0 {
			return 0
		}
		return float64(busy()) / (nk * float64(slots))
	})

	// Per-input grants (and the Jain fairness index over them).
	inputGranted := func(i int) int64 {
		v := atomic.LoadInt64(&st.PerInputGranted[i])
		for _, p := range s.ports {
			v += atomic.LoadInt64(&p.perInputGranted[i])
		}
		return v
	}
	for i := 0; i < s.cfg.N; i++ {
		i := i
		r.CounterFunc("wdm_input_granted_total", "Grants per input fiber.",
			[]telemetry.Label{{Key: "input", Value: strconv.Itoa(i)}},
			func() int64 { return inputGranted(i) })
	}
	r.GaugeFunc("wdm_fairness_jain", "Jain fairness index over per-input grants.", nil, func() float64 {
		shares := make([]float64, s.cfg.N)
		for i := range shares {
			shares[i] = float64(inputGranted(i))
		}
		return metrics.Jain(shares)
	})

	for b := 0; b < s.k; b++ {
		b := b
		r.CounterFunc("wdm_channel_busy_slots_total", "Busy slots per output wavelength channel, summed over fibers.",
			[]telemetry.Label{{Key: "channel", Value: strconv.Itoa(b)}},
			func() int64 {
				v := atomic.LoadInt64(&st.PerChannelBusy[b])
				for _, p := range s.ports {
					v += atomic.LoadInt64(&p.busyPerChannel[b])
				}
				return v
			})
	}

	for c := range st.PerClassOffered {
		c := c
		lbl := []telemetry.Label{{Key: "class", Value: strconv.Itoa(c)}}
		r.CounterFunc("wdm_class_offered_total", "Offered packets per QoS class.", lbl, func() int64 {
			v := atomic.LoadInt64(&st.PerClassOffered[c])
			for _, p := range s.ports {
				v += atomic.LoadInt64(&p.clsOff[c])
			}
			return v
		})
		r.CounterFunc("wdm_class_granted_total", "Granted packets per QoS class.", lbl, func() int64 {
			v := atomic.LoadInt64(&st.PerClassGranted[c])
			for _, p := range s.ports {
				v += atomic.LoadInt64(&p.clsGrant[c])
			}
			return v
		})
	}

	r.HistogramFunc("wdm_match_size", "Per-fiber per-slot matching sizes.", nil,
		func() metrics.HistogramSnapshot {
			snap := st.MatchSizes.Snapshot()
			for _, p := range s.ports {
				snap.Merge(p.matchSizes.Snapshot())
			}
			return snap
		})

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
			live(&fs.LostGrants, func(p *outputPort) *int64 { return &p.faultLost }))
		r.CounterFunc("wdm_fault_killed_connections_total", "In-flight connections aborted by faults.", nil,
			live(&fs.KilledConnections, func(p *outputPort) *int64 { return &p.faultKilled }))
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
