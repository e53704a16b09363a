package interconnect

import (
	"sync/atomic"
	"time"

	"wdmsched/internal/metrics"
)

// EngineStats reports the run-time behavior of the slot engine itself, as
// opposed to the traffic-level quantities in Stats: how long the per-slot
// scheduling phase takes, how the work spreads across ports, and whether
// the hot path stays allocation-free. It is populated continuously during
// the run and safe to read after Finalize.
type EngineStats struct {
	// Distributed records which execution backend produced the run:
	// the worker crew (true) or the sequential port loop.
	Distributed bool

	// SlotLatency is the distribution of per-slot scheduling-phase wall
	// time, one observation per slot: from RunSlot's start of the phase,
	// when it hands the admitted arrivals to the ports, until every port
	// has produced its grants.
	SlotLatency *metrics.DurationHistogram

	// PortBusy is the cumulative time each output port spent inside its
	// scheduler this run, settled at Finalize (live telemetry reads the
	// underlying atomic accumulators instead). Only a port with requests
	// in a slot, or a traced one, is timed: an idle untraced port is
	// credited 0 and reads no clock, and its few nanoseconds fall into
	// the next timed port's interval. On the sequential engine the sum
	// over ports is at most SlotLatency.Sum(); in distributed mode it can
	// exceed it, and that surplus is exactly the parallel speedup of the
	// worker crew. Idle time of a port is SlotLatency.Sum() − PortBusy[o].
	PortBusy []time.Duration

	// AllocsPerSlot is the most recent sampled heap-allocation rate of
	// the whole process, in mallocs per simulated slot, from periodic
	// runtime/metrics /gc/heap/allocs:objects deltas. It is process-global
	// (traffic generation and harness allocations count too), so treat it
	// as an upper bound on the engine's own allocation rate; in steady
	// state it should approach zero.
	AllocsPerSlot metrics.Gauge

	// MemSamples counts the heap-allocation samples behind
	// AllocsPerSlot. Updated atomically so telemetry can read it live.
	MemSamples int64

	// busyNS is the live per-port busy-time accumulation in nanoseconds,
	// written atomically by the crew (or the sequential loop)
	// and copied into PortBusy when the run settles.
	busyNS []int64
}

func newEngineStats(n int, distributed bool) *EngineStats {
	return &EngineStats{
		Distributed: distributed,
		SlotLatency: metrics.NewDurationHistogram(),
		PortBusy:    make([]time.Duration, n),
		busyNS:      make([]int64, n),
	}
}

// addBusy accumulates scheduling time for port o (any goroutine).
func (e *EngineStats) addBusy(o int, d time.Duration) {
	atomic.AddInt64(&e.busyNS[o], int64(d))
}

// busy returns port o's live cumulative busy time.
func (e *EngineStats) busy(o int) time.Duration {
	return time.Duration(atomic.LoadInt64(&e.busyNS[o]))
}

// settle copies the live accumulators into the public PortBusy view;
// called by Finalize after the helpers have stopped.
func (e *EngineStats) settle() {
	for o := range e.busyNS {
		e.PortBusy[o] = e.busy(o)
	}
}

// PortBusyFraction returns the fraction of the run's scheduling wall time
// port o spent scheduling (0 when nothing ran yet).
func (e *EngineStats) PortBusyFraction(o int) float64 {
	wall := e.SlotLatency.Sum()
	if wall <= 0 || o < 0 || o >= len(e.PortBusy) {
		return 0
	}
	return float64(e.PortBusy[o]) / float64(wall)
}

// Speedup returns the ratio of total port scheduling time to scheduling
// wall time — the effective parallelism of the engine (≤ 1 for the
// sequential backend, up to min(GOMAXPROCS, N) for the crew).
func (e *EngineStats) Speedup() float64 {
	wall := e.SlotLatency.Sum()
	if wall <= 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range e.PortBusy {
		busy += b
	}
	return float64(busy) / float64(wall)
}
