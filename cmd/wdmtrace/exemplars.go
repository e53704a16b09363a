package main

import (
	"fmt"
	"io"
	"os"

	"wdmsched/internal/cli"
	"wdmsched/internal/spancheck"
	"wdmsched/internal/telemetry"
)

// runExemplars renders a grant-path exemplar dump — exemplars.jsonl from
// an incident bundle, or a captured /exemplars body re-encoded as JSONL —
// as a standalone Chrome trace_event timeline: one thread lane per
// lifecycle stage, one duration span per non-zero stage, and a flow
// chain keyed by request ID stitching each request's waterfall across
// the lanes. Load the output in chrome://tracing or Perfetto.
func runExemplars(stdout io.Writer, path, outPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	exs, err := telemetry.ReadExemplarsJSONL(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(exs) == 0 {
		return fmt.Errorf("no exemplars in %s", path)
	}

	// Anchor the timeline at the earliest request so ts stays small and
	// positive regardless of the host's monotonic-clock epoch.
	base := exs[0].StartNS
	for _, e := range exs {
		if e.StartNS < base {
			base = e.StartNS
		}
	}

	events := []spancheck.ChromeEvent{{Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "grant exemplars"}}}
	for st, name := range telemetry.GrantStageNames {
		events = append(events, spancheck.ChromeEvent{Name: "thread_name", Ph: "M", Pid: 0, Tid: st,
			Args: map[string]any{"name": name}})
	}

	spans, flows := 0, 0
	for _, e := range exs {
		t := e.StartNS - base
		id := fmt.Sprintf("%#x", e.ID)
		args := map[string]any{
			"id": e.ID, "tenant": e.Tenant, "class": e.Class,
			"slot": e.Slot, "verdict": e.Verdict, "total_ns": e.TotalNS,
		}
		// Stages chain back-to-back from the receipt timestamp; the flow
		// steps make the hand-offs explicit even when a stage lane is far
		// from the previous one vertically.
		last := -1
		for st := range telemetry.GrantStageNames {
			if e.Stages[st] > 0 {
				last = st
			}
		}
		prev := -1
		for st, name := range telemetry.GrantStageNames {
			d := e.Stages[st]
			if d <= 0 {
				continue
			}
			ts := float64(t) / 1e3
			events = append(events, spancheck.ChromeEvent{Name: name, Ph: "X", Cat: "stage",
				Pid: 0, Tid: st, Ts: ts, Dur: float64(d) / 1e3, Args: args})
			spans++
			ph := "t"
			switch {
			case prev < 0:
				ph = "s"
			case st == last:
				ph = "f"
			}
			ev := spancheck.ChromeEvent{Name: "request", Ph: ph, Cat: "request",
				Pid: 0, Tid: st, Ts: ts, ID: id}
			if ph == "f" {
				ev.BP = "e"
			}
			if ph != "s" {
				flows++
			}
			events = append(events, ev)
			prev = st
			t += d
		}
	}

	if err := cli.WriteFile(outPath, func(w io.Writer) error {
		return spancheck.EncodeChrome(w, events)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "exemplars      %d requests, %d stage spans, %d flow edges -> %s\n",
		len(exs), spans, flows, outPath)
	return nil
}
