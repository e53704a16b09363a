// Package spancheck merges the span dumps of a traced cluster run — the
// controller's and any number of nodes' (telemetry.SpanTracer JSONL,
// written by Controller.WriteSpans / Node.WriteSpans) — onto one
// clock-corrected timeline and verifies its cross-process invariants:
// containment (node work happens inside the controller RPC that carried
// it) and attribution (the stage spans explain the slot time). It is the
// engine behind `wdmtrace -merge -check` and the span invariant of
// `wdmsoak`.
package spancheck

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Span is one parsed span dump line (telemetry.SpanTracer.WriteJSONL).
// Start/Dur are nanoseconds on the dumping process's local span clock.
type Span struct {
	Slot  int64  `json:"slot"`
	Lane  int32  `json:"lane"`
	Stage string `json:"stage"`
	Port  int32  `json:"port"`
	ID    uint64 `json:"id"`
	Start int64  `json:"start"`
	Dur   int64  `json:"dur"`
}

// LinkSync mirrors cluster.LinkSync: the controller's clock estimate for
// one node link, used to place node spans on the controller timeline.
type LinkSync struct {
	Node     string `json:"node"`
	Shard    int    `json:"shard"`
	OffsetNS int64  `json:"offset_ns"`
	RTTNS    int64  `json:"rtt_ns"`
}

// Meta is the dump's first-line metadata object.
type Meta struct {
	Role  string     `json:"role"`
	RunID uint64     `json:"run_id"`
	Links []LinkSync `json:"links"`
}

// Dump is one parsed span dump. Name labels it in error messages (the
// file path, or a synthetic name for in-memory dumps).
type Dump struct {
	Name  string
	Meta  Meta
	Spans []Span
}

// ReadDump parses one span dump from r: a meta line followed by span
// JSONL. name labels the dump in errors.
func ReadDump(name string, r io.Reader) (*Dump, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return nil, fmt.Errorf("%s: empty span dump", name)
	}
	var first struct {
		Meta *Meta `json:"meta"`
	}
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Meta == nil {
		return nil, fmt.Errorf("%s: first line is not a span-dump meta object", name)
	}
	d := &Dump{Name: name, Meta: *first.Meta}
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: bad span line: %w", name, err)
		}
		d.Spans = append(d.Spans, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// ReadDumpFile parses the span dump at path.
func ReadDumpFile(path string) (*Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(path, f)
}

// ShardOf recovers the controller link a node dump talked to. Span IDs
// are seq<<20|shard, so any echoed ID names the shard directly.
func ShardOf(d *Dump, nLinks int) (int, error) {
	for _, s := range d.Spans {
		if s.ID != 0 {
			shard := int(s.ID & (1<<20 - 1))
			if shard >= nLinks {
				return 0, fmt.Errorf("%s: span id %#x names shard %d, controller has %d links",
					d.Name, s.ID, shard, nLinks)
			}
			return shard, nil
		}
	}
	return 0, fmt.Errorf("%s: no span carries a trace ID; cannot map the dump to a controller link", d.Name)
}

// Merged is a controller dump joined with its node dumps, shard-mapped
// and clock-synced, ready for timeline export and invariant checks.
type Merged struct {
	Ctrl    *Dump
	Nodes   map[int]*Dump // shard -> dump
	Offsets map[int]int64 // shard -> controller-estimated clock offset
	RTTs    map[int]int64 // shard -> best-sample RTT
	rpcByID map[uint64]Span
}

// Merge validates the dumps (roles, run IDs, unique shard mapping) and
// builds the merged view. The controller dump comes first; node dumps
// follow in any order.
func Merge(ctrl *Dump, nodes []*Dump) (*Merged, error) {
	if ctrl.Meta.Role != "controller" {
		return nil, fmt.Errorf("%s: role %q, want controller first (node dumps follow in any order)",
			ctrl.Name, ctrl.Meta.Role)
	}
	m := &Merged{
		Ctrl:    ctrl,
		Nodes:   make(map[int]*Dump),
		Offsets: make(map[int]int64, len(ctrl.Meta.Links)),
		RTTs:    make(map[int]int64, len(ctrl.Meta.Links)),
		rpcByID: make(map[uint64]Span),
	}
	for _, d := range nodes {
		if d.Meta.Role != "node" {
			return nil, fmt.Errorf("%s: role %q, want node", d.Name, d.Meta.Role)
		}
		if d.Meta.RunID != 0 && d.Meta.RunID != ctrl.Meta.RunID {
			return nil, fmt.Errorf("%s: run %#x does not match controller run %#x (dumps from different runs?)",
				d.Name, d.Meta.RunID, ctrl.Meta.RunID)
		}
		shard, err := ShardOf(d, len(ctrl.Meta.Links))
		if err != nil {
			return nil, err
		}
		if prev, dup := m.Nodes[shard]; dup {
			return nil, fmt.Errorf("%s and %s both map to shard %d", prev.Name, d.Name, shard)
		}
		m.Nodes[shard] = d
	}
	for _, l := range ctrl.Meta.Links {
		m.Offsets[l.Shard], m.RTTs[l.Shard] = l.OffsetNS, l.RTTNS
	}
	for _, s := range ctrl.Spans {
		if s.Stage == "rpc" && s.ID != 0 {
			m.rpcByID[s.ID] = s
		}
	}
	return m, nil
}

// ChromeEvent is one Chrome trace_event record; ts and dur are
// microseconds. The -merge and -exemplars timelines of wdmtrace are both
// made of it.
type ChromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// EncodeChrome writes events as one Chrome trace_event JSON document,
// loadable in chrome://tracing or Perfetto.
func EncodeChrome(w io.Writer, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}{events})
}

func metaEvent(pid int, name string) ChromeEvent {
	return ChromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
}

// WriteChrome renders the merged timeline as a Chrome trace_event JSON
// document: process 0 is the controller, process shard+1 each node
// (thread = tracer lane), node clocks corrected by the controller's
// offset estimate, and an RPC flow arrow from each controller RPC span to
// the node work it covered. It returns the RPC flow-arrow count.
func (m *Merged) WriteChrome(w io.Writer) (flows int, err error) {
	events := []ChromeEvent{metaEvent(0, "controller")}
	for shard := range m.Nodes {
		events = append(events, metaEvent(shard+1, fmt.Sprintf("node %s", m.Ctrl.Meta.Links[shard].Node)))
	}
	addSpan := func(pid int, s Span, start int64) {
		events = append(events, ChromeEvent{
			Name: s.Stage, Ph: "X", Pid: pid, Tid: int(s.Lane),
			Ts: float64(start) / 1e3, Dur: float64(s.Dur) / 1e3,
			Args: map[string]any{"slot": s.Slot, "port": s.Port, "id": s.ID},
		})
	}
	for _, s := range m.Ctrl.Spans {
		addSpan(0, s, s.Start)
		if s.Stage == "rpc" && s.ID != 0 {
			events = append(events, ChromeEvent{
				Name: "rpc", Ph: "s", Cat: "rpc", Pid: 0, Tid: int(s.Lane),
				Ts: float64(s.Start) / 1e3, ID: fmt.Sprintf("%#x", s.ID),
			})
		}
	}
	for shard, d := range m.Nodes {
		off := m.Offsets[shard]
		for _, s := range d.Spans {
			start := s.Start - off // node clock -> controller clock
			addSpan(shard+1, s, start)
			if s.Stage == "decode" && s.ID != 0 {
				if _, ok := m.rpcByID[s.ID]; ok {
					events = append(events, ChromeEvent{
						Name: "rpc", Ph: "f", BP: "e", Cat: "rpc", Pid: shard + 1, Tid: int(s.Lane),
						Ts: float64(start) / 1e3, ID: fmt.Sprintf("%#x", s.ID),
					})
					flows++
				}
			}
		}
	}
	if err := EncodeChrome(w, events); err != nil {
		return 0, err
	}
	return flows, nil
}

// NodeSpanCount sums the spans across the node dumps.
func (m *Merged) NodeSpanCount() int {
	n := 0
	for _, d := range m.Nodes {
		n += len(d.Spans)
	}
	return n
}

// StageAgg is one row of the per-stage latency attribution table.
type StageAgg struct {
	Stage string
	Count int64
	Total int64 // nanoseconds
}

// Attribution aggregates every process's spans per stage, sorted by
// descending total time.
func (m *Merged) Attribution() []StageAgg {
	stages := map[string]*StageAgg{}
	add := func(spans []Span) {
		for _, s := range spans {
			a := stages[s.Stage]
			if a == nil {
				a = &StageAgg{Stage: s.Stage}
				stages[s.Stage] = a
			}
			a.Count++
			a.Total += s.Dur
		}
	}
	add(m.Ctrl.Spans)
	for _, d := range m.Nodes {
		add(d.Spans)
	}
	out := make([]StageAgg, 0, len(stages))
	for _, a := range stages {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// Report carries the measured invariant values of one Check run.
type Report struct {
	// Containment: node spans matched to a controller RPC span, and how
	// many fell outside their clock-corrected RPC window.
	Checked    int
	Violations int
	// AttributionRatio is explained stage time over total slot-span time;
	// valid only when AttributionChecked (containment passed first).
	AttributionRatio   float64
	AttributionChecked bool
}

// ContainmentFrac is Violations / Checked.
func (r *Report) ContainmentFrac() float64 {
	if r.Checked == 0 {
		return 0
	}
	return float64(r.Violations) / float64(r.Checked)
}

// Check enforces the merged timeline's invariants:
//
//  1. Containment — every node span, after clock correction, must lie
//     within the controller RPC span that carried it, give or take the
//     link RTT plus a fixed 100µs slack (the offset estimate is only as
//     good as the best sample). At most 2% of spans may violate.
//  2. Attribution — prepare + commit + the per-slot critical path of
//     encode/RPC/fallback must explain 40–105% of total slot-span time;
//     far less means spans are missing, more than ~100% means
//     double-counting or broken clocks.
//
// The Report is populated as far as checking got, error or not.
//
// Attribution assumes the controller never stalled between stages; runs
// with transport fault injection spend unattributed time in retry backoff
// and deadline waits, so chaos harnesses call CheckContainment alone.
func (m *Merged) Check() (Report, error) {
	r, err := m.CheckContainment()
	if err != nil {
		return r, err
	}
	return m.CheckAttribution(r)
}

// CheckContainment enforces invariant 1 alone.
func (m *Merged) CheckContainment() (Report, error) {
	var r Report
	for shard, d := range m.Nodes {
		slack := m.RTTs[shard] + 100_000
		off := m.Offsets[shard]
		for _, s := range d.Spans {
			if s.ID == 0 {
				continue
			}
			rpc, ok := m.rpcByID[s.ID]
			if !ok {
				continue // RPC span rotated out of the controller ring
			}
			r.Checked++
			start := s.Start - off
			if start < rpc.Start-slack || start+s.Dur > rpc.Start+rpc.Dur+slack {
				r.Violations++
			}
		}
	}
	if r.Checked == 0 {
		return r, fmt.Errorf("check: no node span matched a controller RPC span")
	}
	if frac := r.ContainmentFrac(); frac > 0.02 {
		return r, fmt.Errorf("check: %.2f%% of node spans fall outside their clock-corrected RPC window (limit 2%%)", 100*frac)
	}
	return r, nil
}

// CheckAttribution enforces invariant 2, extending the report r (from
// CheckContainment) with the attribution ratio.
func (m *Merged) CheckAttribution(r Report) (Report, error) {
	type slotAgg struct {
		perLane map[int32]int64 // encode+rpc+fallback per controller lane
		prep    int64
		commit  int64
		slot    int64
	}
	slots := map[int64]*slotAgg{}
	at := func(slot int64) *slotAgg {
		a := slots[slot]
		if a == nil {
			a = &slotAgg{perLane: map[int32]int64{}}
			slots[slot] = a
		}
		return a
	}
	for _, s := range m.Ctrl.Spans {
		a := at(s.Slot)
		switch s.Stage {
		case "slot":
			a.slot += s.Dur
		case "prepare":
			a.prep += s.Dur
		case "commit":
			a.commit += s.Dur
		case "encode", "rpc", "fallback":
			a.perLane[s.Lane] += s.Dur
		}
	}
	var explained, slotTotal int64
	for _, a := range slots {
		if a.slot == 0 {
			continue // slot span rotated out; nothing to attribute against
		}
		slotTotal += a.slot
		var critical int64
		for _, d := range a.perLane {
			if d > critical {
				critical = d
			}
		}
		explained += a.prep + a.commit + critical
	}
	if slotTotal == 0 {
		return r, fmt.Errorf("check: no slot spans retained; raise the span capacity")
	}
	r.AttributionRatio = float64(explained) / float64(slotTotal)
	r.AttributionChecked = true
	if r.AttributionRatio < 0.4 || r.AttributionRatio > 1.05 {
		return r, fmt.Errorf("check: stage attribution explains %.1f%% of slot time, want 40%%-105%%", 100*r.AttributionRatio)
	}
	return r, nil
}
