package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program. Spans of one slot or one request share Group.
type span struct {
	Name   string
	Parent int   // index of the causing span, -1 for a root
	Group  int64 // slot number or request id; -1 for run-level spans
	Start  int64 // ns since the tracer started
	End    int64
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, which is how the untraced run is measured.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, group int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Group: group, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// add records a span whose endpoints were measured already.
func (t *tracer) add(name string, parent int, group int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Group: group,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// selfTime is one span name's total duration and the part not covered by
// child spans.
type selfTime struct {
	Name          string
	Count         int
	TotalNS, Self int64
}

// selfTimes aggregates by name: a layer's self time is its spans' duration
// minus the duration of their direct children.
func selfTimes(spans []span) []selfTime {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End > s.Start {
			children[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*selfTime{}
	for i, s := range spans {
		if s.End <= s.Start {
			continue
		}
		name, _, _ := strings.Cut(s.Name, "[") // core.Schedule[3] counts under core.Schedule
		st := byName[name]
		if st == nil {
			st = &selfTime{Name: name}
			byName[name] = st
		}
		st.Count++
		st.TotalNS += s.End - s.Start
		st.Self += s.End - s.Start - children[i]
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNS > out[j].TotalNS })
	return out
}

// writeChrome writes the spans as a Chrome trace_event document (the format
// wdmtrace emits; open it in chrome://tracing or ui.perfetto.dev). Root
// spans get lane 0, their descendants lane depth.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	depth := make([]int, len(t.spans))
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: depth[i],
			Args: map[string]any{"id": i, "parent": s.Parent, "group": s.Group},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
