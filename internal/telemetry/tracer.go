package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// EventKind classifies one scheduling decision event.
type EventKind uint8

const (
	// EvGrant: a newly arrived packet was assigned an output channel.
	EvGrant EventKind = iota + 1
	// EvRegrant: a held connection was re-placed by disturb-mode
	// rescheduling (kept distinct from EvGrant so grant-event counts
	// equal Stats.Granted exactly).
	EvRegrant
	// EvReject: a request was denied; Reason says why.
	EvReject
	// EvPreempt: disturb-mode rescheduling dropped a held connection.
	EvPreempt
	// EvFaultKill: a fault killed an in-flight connection mid-hold.
	EvFaultKill
	// EvBreakEdge: the BFA family broke an existing assignment at
	// Channel to admit one more request (paper §IV).
	EvBreakEdge
	// EvSlotLatency: one port finished its slot; Value is wall time in
	// nanoseconds.
	EvSlotLatency
)

// String returns a stable lowercase name for the kind.
func (k EventKind) String() string {
	switch k {
	case EvGrant:
		return "grant"
	case EvRegrant:
		return "regrant"
	case EvReject:
		return "reject"
	case EvPreempt:
		return "preempt"
	case EvFaultKill:
		return "fault-kill"
	case EvBreakEdge:
		return "break-edge"
	case EvSlotLatency:
		return "slot-latency"
	}
	return "unknown"
}

// RejectReason says why an EvReject happened.
type RejectReason uint8

const (
	ReasonNone RejectReason = iota
	// ReasonInputBlocked: the input channel already carries a held
	// connection, so the new arrival never reached a scheduler.
	ReasonInputBlocked
	// ReasonWindowOccupied: every output channel in the conversion
	// window is occupied by earlier traffic.
	ReasonWindowOccupied
	// ReasonFaultMasked: the window has free channels, but faults mask
	// all of them (dark channel or failed converter).
	ReasonFaultMasked
	// ReasonLostMatching: usable free channels existed, but the
	// scheduler's matching granted them to competing requests.
	ReasonLostMatching
)

// String returns a stable lowercase name for the reason.
func (r RejectReason) String() string {
	switch r {
	case ReasonNone:
		return ""
	case ReasonInputBlocked:
		return "input-blocked"
	case ReasonWindowOccupied:
		return "window-occupied"
	case ReasonFaultMasked:
		return "fault-masked"
	case ReasonLostMatching:
		return "lost-matching"
	}
	return "unknown"
}

// Event is one scheduling decision. Fields not meaningful for a kind hold
// -1 (or 0 for Value). Events are plain values sized for ring storage.
type Event struct {
	Slot    int64        // time slot
	Lane    int32        // emitting lane: output port index, or Ports() for switch-level events
	Kind    EventKind    //
	Reason  RejectReason // EvReject only
	Fiber   int32        // input fiber, -1 when n/a
	Wave    int32        // arrival wavelength, -1 when n/a
	Channel int32        // output channel granted / broken, -1 when n/a
	Value   int64        // EvSlotLatency: ns; EvGrant/EvReject: priority class
}

// lane is one decision ring. Its contents are read post-run, after the
// engine barrier publishes them.
type lane struct {
	ring[Event]
	_ [40]byte // keep neighboring lanes off one cache line
}

// DecisionTracer records scheduling events into per-lane bounded ring
// buffers: one lane per output port plus one switch lane, each written by
// exactly one goroutine, so tracing is race-free and allocation-free under
// both engines. When a lane overflows its capacity the oldest events are
// overwritten (and counted as dropped).
type DecisionTracer struct {
	lanes []lane
	ports int
}

// NewDecisionTracer builds a tracer for a switch with ports output fibers,
// keeping up to perLaneCap events per lane (rounded up to 1).
func NewDecisionTracer(ports, perLaneCap int) *DecisionTracer {
	if ports < 1 {
		panic("telemetry: tracer needs at least one port")
	}
	if perLaneCap < 1 {
		perLaneCap = 1
	}
	t := &DecisionTracer{lanes: make([]lane, ports+1), ports: ports}
	for i := range t.lanes {
		t.lanes[i].init(perLaneCap)
	}
	return t
}

// Ports returns the number of output-port lanes (the switch lane is extra).
func (t *DecisionTracer) Ports() int { return t.ports }

// SwitchLane returns the lane index for switch-level events (input
// admission happens before requests are fanned out to ports).
func (t *DecisionTracer) SwitchLane() int { return t.ports }

// Emit appends an event to lane l. Each lane must have a single writer;
// the interconnect assigns lane = output port (worker goroutine) and the
// switch lane to the slot-driving goroutine.
func (t *DecisionTracer) Emit(l int, e Event) { t.lanes[l].push(e) }

// Emitted returns the total number of events emitted across lanes (safe
// to call during a run).
func (t *DecisionTracer) Emitted() int64 {
	var n int64
	for i := range t.lanes {
		n += t.lanes[i].total.Load()
	}
	return n
}

// Dropped returns how many events were overwritten by ring wraparound.
func (t *DecisionTracer) Dropped() int64 {
	var n int64
	for i := range t.lanes {
		n += t.lanes[i].dropped()
	}
	return n
}

// Reset clears all lanes.
func (t *DecisionTracer) Reset() {
	for i := range t.lanes {
		t.lanes[i].reset()
	}
}

// Events returns the retained events merged across lanes, ordered by
// (Slot, Lane) with per-lane emission order preserved. Call only after
// the run completes (Finalize): it reads ring memory without
// synchronizing against writers.
func (t *DecisionTracer) Events() []Event {
	var out []Event
	for i := range t.lanes {
		out = t.lanes[i].appendTo(out)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Slot != out[b].Slot {
			return out[a].Slot < out[b].Slot
		}
		return out[a].Lane < out[b].Lane
	})
	return out
}

// WriteJSONL writes one JSON object per event. Every object carries the
// same keys; inapplicable fields hold -1 (or 0 for value).
func (t *DecisionTracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range t.Events() {
		port := int(e.Lane)
		if port == t.ports {
			port = -1
		}
		_, err := fmt.Fprintf(bw,
			`{"slot":%d,"port":%d,"kind":%q,"reason":%q,"in":%d,"wave":%d,"ch":%d,"value":%d}`+"\n",
			e.Slot, port, e.Kind.String(), e.Reason.String(),
			e.Fiber, e.Wave, e.Channel, e.Value)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// chromeSlotUS is the synthetic wall-clock width of one time slot in the
// Chrome trace timeline, in microseconds. Slots are logical time, not wall
// time; 10µs per slot keeps a few thousand slots readably zoomable.
const chromeSlotUS = 10

// WriteChromeTrace writes the events in the Chrome trace_event JSON array
// format, loadable in chrome://tracing or Perfetto. Each output port is a
// thread; EvSlotLatency becomes a complete ("X") span whose duration is
// the measured port wall time, every other event an instant ("i") mark at
// its slot.
func (t *DecisionTracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	for _, e := range t.Events() {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		ts := e.Slot * chromeSlotUS
		tid := int(e.Lane)
		var err error
		if e.Kind == EvSlotLatency {
			durUS := float64(e.Value) / 1e3
			_, err = fmt.Fprintf(bw,
				`{"name":"slot","ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%g,"args":{"slot":%d,"ns":%d}}`,
				tid, ts, durUS, e.Slot, e.Value)
		} else {
			name := e.Kind.String()
			if e.Kind == EvReject {
				name = "reject:" + e.Reason.String()
			}
			_, err = fmt.Fprintf(bw,
				`{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d,"args":{"slot":%d,"in":%d,"wave":%d,"ch":%d}}`,
				name, tid, ts, e.Slot, e.Fiber, e.Wave, e.Channel)
		}
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}
