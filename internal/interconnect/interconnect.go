// Package interconnect simulates the paper's N×N time-slotted WDM optical
// interconnect end to end: slot-aligned packet arrivals are partitioned by
// destination fiber, each output fiber's scheduler resolves contention
// independently (the paper's distributed scheduling argument, Section I),
// winners are selected fairly among same-wavelength requests, channel
// holds for multi-slot connections (Section V) are tracked, and physical
// feasibility can be checked against the Fig. 1 datapath model.
//
// The simulator runs in two modes producing identical results: sequential
// (one loop over output ports, for benchmarking algorithm cost) and
// distributed (a worker crew of the caller and up to GOMAXPROCS−1 helpers
// claiming each slot's ports one at a time, demonstrating that the per-fiber
// scheduling instances share no state). Each crew member owns one
// scheduler and lends it to the ports it claims. Both modes reuse all
// per-slot scratch, so RunSlot is allocation-free in steady state; engine
// run-time metrics (slot scheduling latency, per-port busy time, sampled
// allocations per slot) are reported through Stats.Engine.
package interconnect

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/fabric"
	"wdmsched/internal/fault"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// SelectorNames lists the Config.Selector values New accepts, the default
// first; the command-line tools build their -selector help from it.
var SelectorNames = []string{"round-robin", "random", "fixed-priority"}

// Config describes an interconnect simulation.
type Config struct {
	// N is the number of input and output fibers.
	N int
	// Conv is the output-side wavelength conversion model.
	Conv wavelength.Conversion
	// Scheduler names the per-port scheduling algorithm (core.NewByName);
	// empty means "exact".
	Scheduler string
	// Selector names the same-wavelength tie-break, one of SelectorNames;
	// empty means "round-robin".
	Selector string
	// Seed drives the random selector streams.
	Seed uint64
	// Disturb enables Section V disturb-mode rescheduling of held
	// multi-slot connections.
	Disturb bool
	// Distributed schedules ports on a worker crew: the RunSlot caller plus
	// min(GOMAXPROCS, N)−1 helper goroutines started at New and stopped at
	// Finalize (none at GOMAXPROCS=1, which runs as the sequential loop).
	Distributed bool
	// ValidateFabric routes every slot's grants through the Fig. 1
	// datapath model and fails on physical infeasibility (slower;
	// intended for tests and spot checks).
	ValidateFabric bool
	// PriorityClasses > 1 enables strict-priority QoS scheduling (the
	// paper's Section VI future work): packets carry a Priority class and
	// each port schedules classes in descending priority with the exact
	// algorithm. Incompatible with Disturb and with a Scheduler name that
	// does not build the exact scheduler ("exact" and its aliases do).
	PriorityClasses int
	// Faults injects a deterministic fault schedule (converter failures,
	// dark channels, port flaps): each slot the injector is advanced and
	// every port schedules against its channel-state mask, with degraded-
	// mode statistics reported through Stats.Fault. Nil disables fault
	// injection entirely.
	Faults fault.Injector
	// Telemetry, when non-nil, registers every run statistic (traffic
	// counters, engine run-time metrics, fault exposure) with the given
	// registry under wdm_* names so a telemetry.Server can expose them
	// live. Nil skips registration entirely.
	Telemetry *telemetry.Registry
	// Trace, when non-nil, records per-slot scheduling decisions
	// (grants, rejects with reason, preemptions, BFA break edges, port
	// slot latency) into the tracer's per-port ring buffers. The tracer
	// must have been built with NewDecisionTracer(N, …). Nil disables
	// tracing; the disabled path is allocation-free.
	Trace *telemetry.DecisionTracer
	// Recorder, when non-nil, attaches an always-on flight recorder: the
	// switch adopts the recorder's decision tracer as its Trace sink
	// (setting both to different tracers is an error — the events would
	// be recorded twice), takes a counter Snapshot into the recorder's
	// ring every Recorder.SnapshotEvery() slots, and records every
	// fault-mask transition (channel state changes, not per-slot state)
	// when Faults is set. Recording is allocation-free on the slot path.
	Recorder *telemetry.FlightRecorder
	// Remote, when non-nil, delegates every slot's scheduling decisions
	// to a batch scheduler running elsewhere — the cluster controller in
	// internal/cluster, which shards the output ports across worker
	// nodes over a real transport. The switch still performs input
	// admission, fault masking, fair selection and hold bookkeeping
	// locally; only the paper's per-fiber matching computation moves off
	// the switch, which then builds no scheduler of its own. With the
	// same seed and trace, a remote run's Stats are identical to the
	// sequential and distributed engines'. Mutually exclusive with
	// Distributed and PriorityClasses > 1.
	Remote BatchScheduler
}

// Switch is a running interconnect simulation.
type Switch struct {
	cfg   Config
	k     int
	ports []*outputPort
	dp    *fabric.Datapath
	stats *Stats

	// mu is the slot lock. RunSlot holds it for the whole slot — the
	// engine's done count orders the helpers' port writes before the unlock —
	// and every reader of port state or run totals (Snapshot, Finalize,
	// the telemetry view) takes it, so the port statistics are plain
	// memory and a reader always sees a slot boundary.
	mu sync.Mutex

	// inputFreeAt[(i·k)+w] is the absolute slot at which input channel
	// (i, λw) finishes transmitting its multi-slot connection: while it is
	// ahead of the current slot the channel cannot carry a new packet
	// (input admission). Preemption and fault kills write 0.
	inputFreeAt []int64
	// inputSeen marks (one bit per channel) the input channels that
	// already carry a packet in the slot being admitted: an input channel
	// is one transmitter, so a second packet on it in the same slot is a
	// malformed arrival set. Plain words, not a fabric.BitVector: the
	// test-and-set runs once per packet on the serial part of the slot,
	// and BitVector's range-checked Get and Set are two calls there.
	inputSeen []uint64
	// blocked lists the input channels whose packets were blocked in the
	// slot being admitted (tracing only), so their reject events are
	// emitted once the whole arrival set has been accepted.
	blocked []int32

	// Per-slot scratch, reused across slots so steady-state RunSlot does
	// not allocate. results is fixed-length and never reallocated: the
	// engine's crew indexes into it directly. Admitted packets go straight
	// into their output port's request list (outputPort.admit).
	results    [][]portGrant
	slotGrants []fabric.Grant
	merged     bool

	// view is what the telemetry collectors read, refreshed under the
	// slot lock once per registry pass (telemetry.go).
	view scrapeView

	// eng runs each slot's ports: the caller, plus helpers if distributed.
	eng *engine

	// Batch scratch for remote (cluster) mode, reused every slot.
	batchReqs []BatchRequest
	batchOut  []BatchResult
	// remoteSpans is the batch scheduler's span tracer (SpanSource), when
	// tracing is on: the slot loop emits prepare/commit/slot spans on
	// lane 0 so they interleave with the controller's per-link RPC spans.
	remoteSpans *telemetry.SpanTracer

	// Flight-recorder state: rec mirrors cfg.Recorder, recPrevMask holds
	// the last observed channel states (N·k, faulted runs only) so mask
	// transitions are recorded as edges, and recScratch is the reused
	// Snapshot buffer for cadenced counter snapshots.
	rec         *telemetry.FlightRecorder
	recPrevMask []core.ChannelState
	recScratch  Snapshot

	// Allocation-rate sampling state for Stats.Engine.AllocsPerSlot.
	allocSample   [1]rtmetrics.Sample
	lastMallocs   uint64
	lastAllocSlot int
}

// memSampleEvery is the slot period of heap-allocation sampling for the
// allocations-per-slot gauge.
const memSampleEvery = 64

// heapAllocs reads the process's cumulative heap-object allocation count
// from runtime/metrics, which — unlike runtime.ReadMemStats — neither
// stops the world nor waits out a running collection. The runtime credits
// small objects when the allocating P's span is refilled or flushed, so
// the count can trail by part of a span per size class: good for a rate
// gauge, not for exact accounting.
func (s *Switch) heapAllocs() uint64 {
	rtmetrics.Read(s.allocSample[:])
	return s.allocSample[0].Value.Uint64()
}

// New builds a switch from the configuration.
func New(cfg Config) (*Switch, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("interconnect: invalid N=%d", cfg.N)
	}
	k := cfg.Conv.K()
	schedName := cfg.Scheduler
	if schedName == "" {
		schedName = "exact"
	}
	if cfg.PriorityClasses > 1 {
		if cfg.Disturb {
			return nil, fmt.Errorf("interconnect: priority classes and disturb mode are mutually exclusive")
		}
		if !core.BuildsExact(schedName, cfg.Conv) {
			return nil, fmt.Errorf("interconnect: priority classes require the exact scheduler, have %q", schedName)
		}
	}
	selName := cfg.Selector
	if selName == "" {
		selName = "round-robin"
	}
	if cfg.Recorder != nil {
		if cfg.Trace == nil {
			cfg.Trace = cfg.Recorder.Decisions()
		} else if cfg.Trace != cfg.Recorder.Decisions() {
			return nil, fmt.Errorf("interconnect: Trace and Recorder carry different decision tracers; use the recorder's (Recorder.Decisions()) or drop Trace")
		}
	}
	if cfg.Trace != nil && cfg.Trace.Ports() != cfg.N {
		return nil, fmt.Errorf("interconnect: tracer built for %d ports, switch has %d",
			cfg.Trace.Ports(), cfg.N)
	}
	if cfg.Remote != nil {
		if cfg.Distributed {
			return nil, fmt.Errorf("interconnect: remote and distributed modes are mutually exclusive")
		}
		if cfg.PriorityClasses > 1 {
			return nil, fmt.Errorf("interconnect: remote mode does not support priority classes")
		}
	}
	dp, err := fabric.NewDatapath(cfg.N, cfg.Conv)
	if err != nil {
		return nil, err
	}
	sw := &Switch{
		cfg:         cfg,
		k:           k,
		dp:          dp,
		stats:       newStats(cfg.N, k, cfg.PriorityClasses),
		inputFreeAt: make([]int64, cfg.N*k),
		inputSeen:   make([]uint64, (cfg.N*k+63)/64),
		results:     make([][]portGrant, cfg.N),
	}
	sw.stats.Engine = newEngineStats(cfg.N, cfg.Distributed)
	if cfg.Faults != nil {
		sw.stats.Fault = newFaultStats(cfg.N, k)
	}
	rng := traffic.NewRNG(cfg.Seed)
	for o := 0; o < cfg.N; o++ {
		var sel fabric.Selector
		switch selName {
		case "round-robin":
			sel = fabric.NewRoundRobin(k)
		case "random":
			sel = fabric.NewRandom(rng.Uint64())
		case "fixed-priority":
			// Unfair baseline for the S7 ablation.
			sel = fabric.NewFixedPriority()
		default:
			return nil, fmt.Errorf("interconnect: unknown selector %q", selName)
		}
		port := newOutputPort(o, cfg.N, k, cfg.Conv, sel, cfg.Disturb, cfg.PriorityClasses, cfg.Faults != nil)
		port.tracer = cfg.Trace
		sw.ports = append(sw.ports, port)
	}
	if cfg.Remote != nil {
		sw.batchReqs = make([]BatchRequest, 0, cfg.N)
		sw.batchOut = make([]BatchResult, 0, cfg.N)
		if src, ok := cfg.Remote.(ClusterStatsSource); ok {
			sw.stats.Cluster = src.ClusterStats()
		}
		if src, ok := cfg.Remote.(SpanSource); ok {
			if tr := src.Spans(); tr != nil {
				tr.EnsureLanes(1)
				sw.remoteSpans = tr
			}
		}
	}
	helpers := 0
	if cfg.Distributed {
		helpers = min(runtime.GOMAXPROCS(0), cfg.N) - 1
	}
	// One scheduler per crew member; none in remote mode, where no port
	// schedules locally.
	var (
		scheds []core.Scheduler
		prios  []*core.PriorityScheduler
	)
	for m := 0; cfg.Remote == nil && m <= helpers; m++ {
		if cfg.PriorityClasses > 1 {
			prio, err := core.NewPriorityScheduler(cfg.Conv)
			if err != nil {
				return nil, err
			}
			prios = append(prios, prio)
			continue
		}
		sched, err := core.NewByName(schedName, cfg.Conv)
		if err != nil {
			return nil, err
		}
		scheds = append(scheds, sched)
	}
	sw.eng = newEngine(sw.ports, sw.results, sw.stats.Engine, helpers, scheds, prios)
	if helpers > 0 {
		// Leak backstop: stop the helpers of a switch dropped without
		// Finalize. The cleanup must not reference sw (the engine does not
		// point back at the switch, so sw stays collectible).
		runtime.AddCleanup(sw, func(e *engine) { e.shutdown() }, sw.eng)
	}
	if cfg.Recorder != nil {
		sw.rec = cfg.Recorder
		sw.rec.EnsureShape(cfg.N, k)
		// Pre-size the scratch snapshot so cadenced recording never
		// allocates on the slot path.
		sw.recScratch.PerInput = make([]int64, cfg.N)
		sw.recScratch.PerChannel = make([]int64, k)
		if cfg.Faults != nil {
			sw.recPrevMask = make([]core.ChannelState, cfg.N*k)
		}
	}
	sw.allocSample[0].Name = "/gc/heap/allocs:objects"
	sw.lastMallocs = sw.heapAllocs()
	if cfg.Telemetry != nil {
		sw.registerTelemetry(cfg.Telemetry)
	}
	return sw, nil
}

// sampleAllocs refreshes the allocations-per-slot gauge from the
// heapAllocs delta over the slots since the previous sample.
func (s *Switch) sampleAllocs() {
	slots := s.stats.Slots - s.lastAllocSlot
	if slots <= 0 {
		return
	}
	mallocs := s.heapAllocs()
	s.stats.Engine.AllocsPerSlot.Set(float64(mallocs-s.lastMallocs) / float64(slots))
	atomic.AddInt64(&s.stats.Engine.MemSamples, 1)
	s.lastMallocs = mallocs
	s.lastAllocSlot = s.stats.Slots
}

// K returns the wavelengths per fiber.
func (s *Switch) K() int { return s.k }

// N returns the fibers per side.
func (s *Switch) N() int { return s.cfg.N }

// RunSlot advances the simulation by one slot with the given arrivals.
// Packets outside the interconnect's shape or with non-positive duration,
// and a second packet on one input channel in the slot, are rejected with
// an error; a rejected slot did not run and leaves no trace in the
// counters or the decision trace. RunSlot holds the slot lock throughout,
// fault injector and remote scheduler calls included — neither may call
// back into the switch.
func (s *Switch) RunSlot(packets []traffic.Packet) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.merged {
		return fmt.Errorf("interconnect: switch already finalized")
	}
	n, k := s.cfg.N, s.k
	slot := int64(s.stats.Slots)
	for _, p := range s.ports {
		p.slot = slot
	}
	blocked, err := s.admit(packets, slot)
	if err != nil {
		for _, p := range s.ports {
			p.discard()
		}
		return err
	}
	trace := s.cfg.Trace
	if blocked != 0 {
		s.stats.Offered.Add(blocked)
		s.stats.InputBlocked.Add(blocked)
		for _, ch := range s.blocked {
			trace.Emit(trace.SwitchLane(), telemetry.Event{
				Slot: slot, Lane: int32(trace.SwitchLane()),
				Kind: telemetry.EvReject, Reason: telemetry.ReasonInputBlocked,
				Fiber: ch / int32(k), Wave: ch % int32(k),
				Channel: -1,
			})
		}
	}

	// Fault phase: advance the injector to this slot and hand every port
	// its channel-state mask before the fan-out (the engine's epoch bump,
	// or the sequential call, orders these writes before the port reads
	// them). Exposure statistics are tallied here, on the switch
	// goroutine, so ports never contend on shared counters.
	if s.cfg.Faults != nil {
		s.cfg.Faults.Advance(s.stats.Slots)
		fs := s.stats.Fault
		healthy := 0
		for o, p := range s.ports {
			m := s.cfg.Faults.Mask(o)
			p.mask = m
			if s.recPrevMask != nil {
				s.recordMaskTransitions(slot, o, m)
			}
			if m == nil {
				healthy += k
				continue
			}
			for _, st := range m {
				switch st {
				case core.Healthy:
					healthy++
				case core.ConverterFailed:
					fs.ConverterFailedChannelSlots.Inc()
				case core.Dark:
					fs.DarkChannelSlots.Inc()
				}
			}
		}
		fs.HealthyChannels.Observe(healthy)
		if broken := n*k - healthy; broken > 0 {
			fs.DegradedSlots.Inc()
			fs.DegradedChannelSlots.Add(int64(broken))
		}
	}

	// Distributed phase: each output port schedules independently — on
	// the engine's crew, which is the caller alone in sequential mode, or
	// remotely — into the switch's reused result buffers.
	start, end := time.Now(), time.Time{}
	if s.cfg.Remote != nil {
		if err := s.runSlotRemote(slot); err != nil {
			for _, p := range s.ports {
				p.discard()
			}
			return err
		}
		end = time.Now()
	} else {
		end = s.eng.runSlot(start)
	}
	s.stats.Engine.SlotLatency.Observe(end.Sub(start))

	// Input-hold bookkeeping and (optionally) datapath validation. A new
	// grant of duration d keeps its input channel transmitting through
	// slot+d-1; a held re-placement keeps the stamp it already has.
	s.slotGrants = s.slotGrants[:0]
	for o, grants := range s.results {
		for _, g := range grants {
			if !g.held {
				s.inputFreeAt[g.fiber*k+g.wave] = slot + int64(g.duration)
			}
			if s.cfg.ValidateFabric {
				s.slotGrants = append(s.slotGrants, fabric.Grant{
					InputFiber:      g.fiber,
					InputWavelength: g.wave,
					OutputFiber:     o,
					OutputChannel:   g.channel,
				})
			}
		}
		// Disturb-mode preemption (and a fault kill) aborts the in-flight
		// transmission and frees its input channel immediately.
		for _, pre := range s.ports[o].preemptees {
			s.inputFreeAt[pre.fiber*k+pre.wave] = 0
		}
	}
	if s.cfg.ValidateFabric {
		if err := s.dp.Route(s.slotGrants); err != nil {
			return fmt.Errorf("interconnect: slot physically infeasible: %w", err)
		}
	}
	s.stats.Slots++
	if s.rec != nil && int64(s.stats.Slots)%s.rec.SnapshotEvery() == 0 {
		s.recordSnapshot()
	}
	if s.stats.Slots-s.lastAllocSlot >= memSampleEvery {
		s.sampleAllocs()
	}
	return nil
}

// admit is the slot's input admission: every packet is checked against the
// interconnect's shape and the one-packet-per-input-channel rule, and one
// whose input channel is still transmitting an earlier connection is
// blocked — only tallied here, and listed for tracing, so it is booked
// once no packet can fail the slot any more. Every other packet is
// appended straight to its output port's request list. On an error the
// ports keep what was admitted before it; the caller discards it.
func (s *Switch) admit(packets []traffic.Packet, slot int64) (blocked int64, err error) {
	n, k := s.cfg.N, s.k
	clear(s.inputSeen)
	s.blocked = s.blocked[:0]
	for i := range packets {
		p := &packets[i]
		if p.InputFiber < 0 || p.InputFiber >= n || p.DestFiber < 0 || p.DestFiber >= n ||
			p.Wavelength < 0 || p.Wavelength >= k {
			return 0, fmt.Errorf("interconnect: packet out of shape: %+v", *p)
		}
		if p.Duration < 1 {
			return 0, fmt.Errorf("interconnect: non-positive duration: %+v", *p)
		}
		ch := p.InputFiber*k + p.Wavelength
		seen, bit := &s.inputSeen[ch>>6], uint64(1)<<(uint(ch)&63)
		if *seen&bit != 0 {
			return 0, fmt.Errorf("interconnect: second packet on input channel (%d,λ%d) in one slot: %+v",
				p.InputFiber, p.Wavelength, *p)
		}
		*seen |= bit
		if s.inputFreeAt[ch] > slot {
			blocked++
			if s.cfg.Trace != nil {
				s.blocked = append(s.blocked, int32(ch))
			}
			continue
		}
		s.ports[p.DestFiber].admit(p.InputFiber, p.Wavelength, p.Duration, p.Priority)
	}
	return blocked, nil
}

// recordMaskTransitions diffs port o's new channel-state mask against the
// last recorded states and appends one FaultTransition per changed
// channel to the flight recorder. A nil mask means all-healthy. Runs on
// the switch goroutine during the fault phase; allocation-free.
func (s *Switch) recordMaskTransitions(slot int64, o int, m []core.ChannelState) {
	base := o * s.k
	if m == nil {
		for c := 0; c < s.k; c++ {
			if prev := s.recPrevMask[base+c]; prev != core.Healthy {
				s.rec.RecordFaultTransition(telemetry.FaultTransition{
					Slot: slot, Port: int32(o), Channel: int32(c),
					From: uint8(prev), To: uint8(core.Healthy),
				})
				s.recPrevMask[base+c] = core.Healthy
			}
		}
		return
	}
	for c, st := range m {
		if prev := s.recPrevMask[base+c]; prev != st {
			s.rec.RecordFaultTransition(telemetry.FaultTransition{
				Slot: slot, Port: int32(o), Channel: int32(c),
				From: uint8(prev), To: uint8(st),
			})
			s.recPrevMask[base+c] = st
		}
	}
}

// recordSnapshot copies the switch's current cumulative counters into the
// flight recorder's snapshot ring. Runs at the end of RunSlot, under the
// slot lock; allocation-free (both the scratch Snapshot and the ring
// entry's slices are pre-sized).
func (s *Switch) recordSnapshot() {
	s.snapshotLocked(&s.recScratch)
	rec := s.rec.BeginSnapshot()
	rec.Slot = s.recScratch.Slots
	rec.Offered = s.recScratch.Offered
	rec.Granted = s.recScratch.Granted
	rec.InputBlocked = s.recScratch.InputBlocked
	rec.OutputDropped = s.recScratch.OutputDropped
	rec.Preempted = s.recScratch.Preempted
	rec.BusyChannelSlots = s.recScratch.BusyChannelSlots
	rec.FaultLostGrants = s.recScratch.FaultLostGrants
	rec.FaultKilled = s.recScratch.FaultKilled
	copy(rec.PerInput, s.recScratch.PerInput)
	copy(rec.PerChannel, s.recScratch.PerChannel)
	s.rec.CommitSnapshot()
}

// runSlotRemote is the cluster-mode scheduling phase: every port's prepare
// half runs locally (building the request vectors), the whole batch is
// handed to the remote scheduler in one call, and the returned assignments
// flow through each port's commit half — fair selection and hold
// bookkeeping stay on the switch, so a cluster run's statistics are
// byte-identical to the in-process engines'.
func (s *Switch) runSlotRemote(slot int64) error {
	t0 := telemetry.NowNS()
	s.batchReqs = s.batchReqs[:0]
	s.batchOut = s.batchOut[:0]
	for o, p := range s.ports {
		p.prepare()
		s.batchReqs = append(s.batchReqs, BatchRequest{
			Port: o, Count: p.count, Occupied: p.occupied, Mask: p.mask,
		})
		out := BatchResult{Port: o, Res: p.res}
		if p.mask != nil {
			out.Shadow = p.shadow
		}
		s.batchOut = append(s.batchOut, out)
	}
	t1 := telemetry.NowNS()
	if err := s.cfg.Remote.ScheduleBatch(slot, s.batchReqs, s.batchOut); err != nil {
		return fmt.Errorf("interconnect: remote scheduling slot %d: %w", slot, err)
	}
	t2 := telemetry.NowNS()
	for o, p := range s.ports {
		p.afterRemote()
		s.results[o] = p.commit()
	}
	t3 := telemetry.NowNS()
	if cs := s.stats.Cluster; cs != nil {
		cs.PrepareTime.Observe(time.Duration(t1 - t0))
		cs.CommitTime.Observe(time.Duration(t3 - t2))
	}
	if tr := s.remoteSpans; tr != nil {
		tr.Emit(0, telemetry.Span{Slot: slot, Stage: telemetry.StagePrepare, Port: -1, Start: t0, Dur: t1 - t0})
		tr.Emit(0, telemetry.Span{Slot: slot, Stage: telemetry.StageCommit, Port: -1, Start: t2, Dur: t3 - t2})
		tr.Emit(0, telemetry.Span{Slot: slot, Stage: telemetry.StageSlot, Port: -1, Start: t0, Dur: t3 - t0})
	}
	return nil
}

// Run drives the switch with gen for the given number of slots and returns
// the final statistics. The switch cannot be reused afterwards.
func (s *Switch) Run(gen traffic.Generator, slots int) (*Stats, error) {
	var buf []traffic.Packet
	for slot := 0; slot < slots; slot++ {
		buf = gen.Generate(slot, buf[:0])
		if err := s.RunSlot(buf); err != nil {
			return nil, err
		}
	}
	return s.Finalize(), nil
}

// Finalize shuts down the worker crew (distributed mode), merges per-port
// statistics into the run totals and returns them. Further RunSlot calls
// fail.
func (s *Switch) Finalize() *Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.merged {
		// The done count in RunSlot already ordered the helpers' writes
		// before ours; shutdown additionally joins the goroutines so port
		// state and busy times are settled.
		s.eng.shutdown()
		s.sampleAllocs()
		s.stats.Engine.settle()
		for _, p := range s.ports {
			p.mergeInto(s.stats, int64(s.stats.Slots))
		}
		s.merged = true
	}
	return s.stats
}
