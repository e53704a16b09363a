package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"

	"wdmsched/internal/metrics"
)

// FlightRecorder is the always-on black box of a running switch: a set of
// bounded, pre-allocated, single-writer ring buffers that continuously
// retain the recent past — per-port scheduling decisions, periodic
// counter snapshots, fault-mask transitions and (in cluster mode)
// per-node RPC/health samples — so that when something goes wrong the last
// N slots of history can be dumped into an incident bundle without having
// recorded the whole run.
//
// Writer discipline mirrors the DecisionTracer it embeds: every ring has
// exactly one writer (the slot-driving goroutine; the decision lanes are
// written by their port workers), emission is allocation-free after
// EnsureShape, and the per-ring totals are atomic only so live telemetry
// scrapes can read occupancy and drop counts mid-run. Ring *contents* are
// read at slot boundaries only (a dump runs on the slot loop between
// RunSlot calls), which is what keeps recording off the hot path and the
// race detector quiet.
type FlightRecorder struct {
	cfg       FlightRecorderConfig
	decisions *DecisionTracer
	spans     *SpanTracer

	snaps  ring[SnapshotRecord]
	faults ring[FaultTransition]
	nodes  ring[NodeSample]

	exemplars *ExemplarRing

	// Dump health, exposed as wdm_recorder_* gauges.
	dumps      atomic.Int64
	dumpNS     atomic.Int64 // cumulative bundle-dump wall time
	lastDumpNS atomic.Int64 // latency of the most recent dump

	// pending is an asynchronous dump request (a SIGQUIT handler sets it;
	// the slot loop honors it at the next slot boundary). 0 = none.
	pending atomic.Int32
}

// FlightRecorderConfig sizes the recorder's rings. Zero values pick the
// defaults noted on each field.
type FlightRecorderConfig struct {
	// Ports is the switch's output-fiber count (required): the decision
	// ring gets one lane per port plus the switch lane.
	Ports int
	// DecisionCap is the decision events retained per lane (default 4096).
	DecisionCap int
	// SnapshotCap is the counter snapshots retained (default 64).
	SnapshotCap int
	// SnapshotEvery is the slot cadence of counter snapshots (default 1024).
	SnapshotEvery int64
	// FaultCap is the fault-mask transitions retained (default 4096).
	FaultCap int
	// NodeCap is the per-node cluster samples retained (default 1024).
	NodeCap int
	// ExemplarK is the slowest-request exemplars retained per window by
	// the grant-path exemplar ring (default 16).
	ExemplarK int
	// ExemplarWindow is the exemplar window width in slots (default
	// SnapshotEvery): exemplars compete within a window, and the previous
	// window's retained set stays readable until the next rollover.
	ExemplarWindow int64
	// Spans optionally attaches a cluster span tracer so bundles can carry
	// the span rings alongside the recorder's own.
	Spans *SpanTracer
}

// SnapshotRecord is one retained counter snapshot: the cumulative switch
// statistics as of Slot, the flight-recorder twin of interconnect.Snapshot
// (kept as a plain struct here so telemetry stays dependency-free).
type SnapshotRecord struct {
	Slot             int64   `json:"slot"`
	Offered          int64   `json:"offered"`
	Granted          int64   `json:"granted"`
	InputBlocked     int64   `json:"input_blocked"`
	OutputDropped    int64   `json:"output_dropped"`
	Preempted        int64   `json:"preempted"`
	BusyChannelSlots int64   `json:"busy_channel_slots"`
	FaultLostGrants  int64   `json:"fault_lost_grants"`
	FaultKilled      int64   `json:"fault_killed"`
	PerInput         []int64 `json:"per_input"`
	PerChannel       []int64 `json:"per_channel"`
}

// FaultTransition is one observed change of a channel's fault state: at
// Slot, output port Port's channel Channel moved From → To (the
// core.ChannelState values as raw bytes, so telemetry does not import the
// scheduler core).
type FaultTransition struct {
	Slot    int64 `json:"slot"`
	Port    int32 `json:"port"`
	Channel int32 `json:"channel"`
	From    uint8 `json:"from"`
	To      uint8 `json:"to"`
}

// NodeSample is one cluster health sample: node Node's link state at Slot
// plus the controller-wide RPC counters at that instant (the cluster
// runtime aggregates transport counters across links, so the counters are
// controller totals, not per-node splits).
type NodeSample struct {
	Slot          int64  `json:"slot"`
	Node          int32  `json:"node"`
	Healthy       bool   `json:"healthy"`
	RemoteItems   int64  `json:"remote_items"`
	FallbackItems int64  `json:"fallback_items"`
	Retries       int64  `json:"retries"`
	Reconnects    int64  `json:"reconnects"`
	BytesSent     int64  `json:"bytes_sent"`
	BytesReceived int64  `json:"bytes_received"`
	RPCP99NS      int64  `json:"rpc_p99_ns"`
	Addr          string `json:"addr,omitempty"`
}

// NewFlightRecorder builds a recorder with every ring pre-allocated.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	if cfg.Ports < 1 {
		panic("telemetry: flight recorder needs at least one port")
	}
	if cfg.DecisionCap <= 0 {
		cfg.DecisionCap = 4096
	}
	if cfg.SnapshotCap <= 0 {
		cfg.SnapshotCap = 64
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 1024
	}
	if cfg.FaultCap <= 0 {
		cfg.FaultCap = 4096
	}
	if cfg.NodeCap <= 0 {
		cfg.NodeCap = 1024
	}
	if cfg.ExemplarWindow <= 0 {
		cfg.ExemplarWindow = cfg.SnapshotEvery
	}
	r := &FlightRecorder{
		cfg:       cfg,
		decisions: NewDecisionTracer(cfg.Ports, cfg.DecisionCap),
		spans:     cfg.Spans,
		exemplars: NewExemplarRing(cfg.ExemplarK, cfg.ExemplarWindow),
	}
	r.snaps.init(cfg.SnapshotCap)
	r.faults.init(cfg.FaultCap)
	r.nodes.init(cfg.NodeCap)
	return r
}

// Decisions returns the embedded decision tracer; attach it (or let the
// switch attach it) as the SwitchConfig.Trace sink so scheduling decisions
// land in the recorder's rings.
func (r *FlightRecorder) Decisions() *DecisionTracer { return r.decisions }

// Spans returns the optional attached span tracer (nil outside cluster
// runs).
func (r *FlightRecorder) Spans() *SpanTracer { return r.spans }

// SnapshotEvery returns the snapshot cadence in slots.
func (r *FlightRecorder) SnapshotEvery() int64 { return r.cfg.SnapshotEvery }

// Exemplars returns the slowest-request exemplar ring. Unlike the other
// rings it is internally locked, so it may be read at any time.
func (r *FlightRecorder) Exemplars() *ExemplarRing { return r.exemplars }

// EnsureShape pre-allocates the per-input and per-channel slices of every
// snapshot ring entry for an n×n switch with k channels per fiber, so
// BeginSnapshot/CommitSnapshot never allocate on the slot loop.
func (r *FlightRecorder) EnsureShape(n, k int) {
	for i := range r.snaps.buf {
		s := &r.snaps.buf[i]
		if cap(s.PerInput) < n {
			s.PerInput = make([]int64, n)
		}
		if cap(s.PerChannel) < k {
			s.PerChannel = make([]int64, k)
		}
		s.PerInput = s.PerInput[:n]
		s.PerChannel = s.PerChannel[:k]
	}
}

// BeginSnapshot returns the ring entry the next snapshot should be written
// into; fill it (EnsureShape has pre-sized its slices) and publish with
// CommitSnapshot. Single writer: the slot-driving goroutine.
func (r *FlightRecorder) BeginSnapshot() *SnapshotRecord { return r.snaps.next() }

// CommitSnapshot publishes the entry returned by the matching
// BeginSnapshot.
func (r *FlightRecorder) CommitSnapshot() { r.snaps.commit() }

// RecordFaultTransition appends one channel-state change to the fault
// ring. Single writer: the slot-driving goroutine (the switch diffs masks
// during its fault phase).
func (r *FlightRecorder) RecordFaultTransition(t FaultTransition) { r.faults.push(t) }

// RecordNodeSample appends one cluster node health sample. Single writer:
// the run-driving goroutine.
func (r *FlightRecorder) RecordNodeSample(s NodeSample) { r.nodes.push(s) }

// RequestDump asks the slot loop to dump an incident bundle at the next
// slot boundary — the asynchronous trigger path (SIGQUIT handlers). It is
// a no-op if a request is already pending.
func (r *FlightRecorder) RequestDump() { r.pending.Store(1) }

// TakeDumpRequest consumes a pending dump request, reporting whether one
// was set. The slot loop calls this between slots.
func (r *FlightRecorder) TakeDumpRequest() bool { return r.pending.Swap(0) != 0 }

// NoteDump records one completed bundle dump and its wall-clock latency
// for the recorder health gauges.
func (r *FlightRecorder) NoteDump(d time.Duration) {
	r.dumps.Add(1)
	r.dumpNS.Add(int64(d))
	r.lastDumpNS.Store(int64(d))
}

// Dumps returns the number of bundle dumps recorded via NoteDump.
func (r *FlightRecorder) Dumps() int64 { return r.dumps.Load() }

// LastDumpLatency returns the wall time of the most recent bundle dump.
func (r *FlightRecorder) LastDumpLatency() time.Duration {
	return time.Duration(r.lastDumpNS.Load())
}

// Snapshots returns the retained snapshot records oldest-first. Call at a
// slot boundary only (it reads ring memory the slot loop writes).
func (r *FlightRecorder) Snapshots() []SnapshotRecord {
	return r.snaps.appendTo(nil)
}

// FaultTransitions returns the retained transitions oldest-first. Slot
// boundaries only.
func (r *FlightRecorder) FaultTransitions() []FaultTransition {
	return r.faults.appendTo(nil)
}

// NodeSamples returns the retained node samples oldest-first. Slot
// boundaries only.
func (r *FlightRecorder) NodeSamples() []NodeSample {
	return r.nodes.appendTo(nil)
}

// NearestSnapshotBefore returns the retained snapshot with the largest
// Slot ≤ slot, or nil when none is retained that early. Slot boundaries
// only.
func (r *FlightRecorder) NearestSnapshotBefore(slot int64) *SnapshotRecord {
	var best *SnapshotRecord
	for _, s := range r.Snapshots() {
		if s.Slot <= slot {
			cp := s
			cp.PerInput = append([]int64(nil), s.PerInput...)
			cp.PerChannel = append([]int64(nil), s.PerChannel...)
			best = &cp
		}
	}
	return best
}

// WriteSnapshotsJSONL writes the retained snapshots as JSONL, oldest
// first. Slot boundaries only.
func (r *FlightRecorder) WriteSnapshotsJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range r.Snapshots() {
		if _, err := fmt.Fprintf(bw,
			`{"slot":%d,"offered":%d,"granted":%d,"input_blocked":%d,"output_dropped":%d,"preempted":%d,"busy_channel_slots":%d,"fault_lost_grants":%d,"fault_killed":%d,"per_input":%s,"per_channel":%s}`+"\n",
			s.Slot, s.Offered, s.Granted, s.InputBlocked, s.OutputDropped, s.Preempted,
			s.BusyChannelSlots, s.FaultLostGrants, s.FaultKilled,
			int64sJSON(s.PerInput), int64sJSON(s.PerChannel)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFaultsJSONL writes the retained fault transitions as JSONL. Slot
// boundaries only.
func (r *FlightRecorder) WriteFaultsJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, t := range r.FaultTransitions() {
		if _, err := fmt.Fprintf(bw,
			`{"slot":%d,"port":%d,"channel":%d,"from":%d,"to":%d}`+"\n",
			t.Slot, t.Port, t.Channel, t.From, t.To); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteNodesJSONL writes the retained cluster node samples as JSONL. Slot
// boundaries only.
func (r *FlightRecorder) WriteNodesJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range r.NodeSamples() {
		healthy := 0
		if s.Healthy {
			healthy = 1
		}
		if _, err := fmt.Fprintf(bw,
			`{"slot":%d,"node":%d,"healthy":%d,"remote_items":%d,"fallback_items":%d,"retries":%d,"reconnects":%d,"bytes_sent":%d,"bytes_received":%d,"rpc_p99_ns":%d,"addr":%q}`+"\n",
			s.Slot, s.Node, healthy, s.RemoteItems, s.FallbackItems, s.Retries,
			s.Reconnects, s.BytesSent, s.BytesReceived, s.RPCP99NS, s.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// int64sJSON renders a slice as a JSON array without reflection.
func int64sJSON(v []int64) string {
	buf := make([]byte, 0, 2+12*len(v))
	buf = append(buf, '[')
	for i, x := range v {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, x, 10)
	}
	return string(append(buf, ']'))
}

// RegisterTelemetry publishes the recorder's own health — ring occupancy,
// overwritten (dropped) records, dump count and dump latency — on a
// registry under wdm_recorder_* names, next to the switch series the
// recorder is taping.
func (r *FlightRecorder) RegisterTelemetry(reg *Registry) {
	series := func(name string, records, dropped func() int64, occupancy func() float64) {
		lbl := []Label{{Key: "ring", Value: name}}
		reg.CounterFunc("wdm_recorder_records_total", "Records emitted into a flight-recorder ring.", lbl, records)
		reg.CounterFunc("wdm_recorder_dropped_total", "Records overwritten by ring wraparound.", lbl, dropped)
		if occupancy != nil {
			reg.GaugeFunc("wdm_recorder_ring_occupancy", "Fill fraction of a flight-recorder ring (1 = wrapped).", lbl, occupancy)
		}
	}
	series("snapshots", r.snaps.total.Load, r.snaps.dropped, r.snaps.occupancy)
	series("faults", r.faults.total.Load, r.faults.dropped, r.faults.occupancy)
	series("nodes", r.nodes.total.Load, r.nodes.dropped, r.nodes.occupancy)
	// One fill fraction cannot summarize the N+1 decision lanes.
	series("decisions", r.decisions.Emitted, r.decisions.Dropped, nil)
	series("exemplars", r.exemplars.Offered, r.exemplars.Dropped, r.exemplars.Occupancy)
	reg.CounterFunc("wdm_recorder_dumps_total", "Incident bundles dumped.", nil, r.dumps.Load)
	reg.GaugeFunc("wdm_recorder_last_dump_seconds", "Wall time of the most recent bundle dump.", nil,
		func() float64 { return time.Duration(r.lastDumpNS.Load()).Seconds() })
	reg.GaugeFunc("wdm_recorder_dump_seconds_total", "Cumulative bundle-dump wall time.", nil,
		func() float64 { return time.Duration(r.dumpNS.Load()).Seconds() })
}

// RegisterSLO publishes a latency SLO for one pipeline stage as burn-rate
// gauges: the stage's observations should stay under budget for at least
// objective of samples (e.g. 0.999). wdm_slo_error_fraction is the
// fraction over budget, and wdm_slo_burn_rate is that fraction divided by
// the error budget (1−objective) — the standard SRE signal where 1.0 means
// "burning exactly the budget" and anything sustained above it means the
// SLO will be violated.
func RegisterSLO(reg *Registry, stage string, h *metrics.DurationHistogram, budget time.Duration, objective float64) {
	if objective <= 0 || objective >= 1 {
		panic("telemetry: SLO objective must be in (0, 1)")
	}
	lbl := []Label{{Key: "stage", Value: stage}}
	reg.GaugeFunc("wdm_slo_budget_seconds", "Latency budget of the stage SLO.", lbl, budget.Seconds)
	reg.GaugeFunc("wdm_slo_error_fraction", "Fraction of stage observations over the latency budget.", lbl,
		func() float64 { return h.FractionAbove(budget) })
	errBudget := 1 - objective
	reg.GaugeFunc("wdm_slo_burn_rate", "Stage error fraction divided by the SLO error budget (sustained >1 = SLO violation).", lbl,
		func() float64 { return h.FractionAbove(budget) / errBudget })
}
