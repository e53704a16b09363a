package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wdmsched/internal/metrics"
)

func TestFlightRecorderDefaults(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 4})
	if r.SnapshotEvery() != 1024 {
		t.Fatalf("default cadence = %d, want 1024", r.SnapshotEvery())
	}
	if r.Decisions() == nil || r.Decisions().Ports() != 4 {
		t.Fatalf("decision tracer not sized for 4 ports")
	}
	if got := r.Snapshots(); got != nil {
		t.Fatalf("empty recorder retained %d snapshots", len(got))
	}
}

func TestFlightRecorderNeedsPorts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Ports=0")
		}
	}()
	NewFlightRecorder(FlightRecorderConfig{})
}

func TestFlightRecorderSnapshotRing(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 2, SnapshotCap: 3})
	r.EnsureShape(2, 4)
	for slot := int64(0); slot < 5; slot++ {
		s := r.BeginSnapshot()
		s.Slot = slot * 10
		s.Granted = slot
		for i := range s.PerInput {
			s.PerInput[i] = slot
		}
		r.CommitSnapshot()
	}
	got := r.Snapshots()
	if len(got) != 3 {
		t.Fatalf("retained %d snapshots, want 3 (ring cap)", len(got))
	}
	// Oldest-first: slots 20, 30, 40 survive.
	for i, want := range []int64{20, 30, 40} {
		if got[i].Slot != want {
			t.Fatalf("snapshot[%d].Slot = %d, want %d", i, got[i].Slot, want)
		}
	}
	if len(got[0].PerInput) != 2 || len(got[0].PerChannel) != 4 {
		t.Fatalf("EnsureShape(2,4) gave per_input=%d per_channel=%d",
			len(got[0].PerInput), len(got[0].PerChannel))
	}
}

func TestFlightRecorderNearestSnapshotBefore(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 1, SnapshotCap: 8})
	r.EnsureShape(1, 1)
	for _, slot := range []int64{100, 200, 300} {
		s := r.BeginSnapshot()
		s.Slot = slot
		s.PerInput[0] = slot
		r.CommitSnapshot()
	}
	if got := r.NearestSnapshotBefore(250); got == nil || got.Slot != 200 {
		t.Fatalf("NearestSnapshotBefore(250) = %v, want slot 200", got)
	}
	if got := r.NearestSnapshotBefore(99); got != nil {
		t.Fatalf("NearestSnapshotBefore(99) = %v, want nil", got)
	}
	// The returned record is a copy: mutating it must not touch the ring.
	cp := r.NearestSnapshotBefore(1000)
	cp.PerInput[0] = -1
	if r.Snapshots()[2].PerInput[0] != 300 {
		t.Fatal("NearestSnapshotBefore returned a view into the ring, want a copy")
	}
}

func TestFlightRecorderFaultAndNodeRings(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 1, FaultCap: 2, NodeCap: 2})
	for i := int64(0); i < 3; i++ {
		r.RecordFaultTransition(FaultTransition{Slot: i, Port: 0, Channel: int32(i), From: 0, To: 1})
		r.RecordNodeSample(NodeSample{Slot: i, Node: int32(i), Healthy: i%2 == 0})
	}
	faults := r.FaultTransitions()
	if len(faults) != 2 || faults[0].Slot != 1 || faults[1].Slot != 2 {
		t.Fatalf("fault ring retained %+v, want slots [1 2]", faults)
	}
	nodes := r.NodeSamples()
	if len(nodes) != 2 || nodes[0].Slot != 1 || nodes[1].Slot != 2 {
		t.Fatalf("node ring retained %+v, want slots [1 2]", nodes)
	}
}

func TestFlightRecorderJSONLRoundTrip(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 1, SnapshotCap: 4, FaultCap: 4, NodeCap: 4})
	r.EnsureShape(2, 3)
	s := r.BeginSnapshot()
	s.Slot = 7
	s.Offered = 10
	s.Granted = 9
	s.PerInput[0], s.PerInput[1] = 4, 5
	s.PerChannel[0], s.PerChannel[1], s.PerChannel[2] = 3, 3, 3
	r.CommitSnapshot()
	r.RecordFaultTransition(FaultTransition{Slot: 7, Port: 1, Channel: 2, From: 0, To: 2})
	r.RecordNodeSample(NodeSample{Slot: 7, Node: 1, Healthy: true, Retries: 3, Addr: "127.0.0.1:9"})

	var buf bytes.Buffer
	if err := r.WriteSnapshotsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var snap SnapshotRecord
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot JSONL does not parse: %v\n%s", err, buf.String())
	}
	if snap.Slot != 7 || snap.Granted != 9 || snap.PerInput[1] != 5 || snap.PerChannel[2] != 3 {
		t.Fatalf("snapshot round-trip = %+v", snap)
	}

	buf.Reset()
	if err := r.WriteFaultsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var ft FaultTransition
	if err := json.Unmarshal(buf.Bytes(), &ft); err != nil {
		t.Fatalf("fault JSONL does not parse: %v\n%s", err, buf.String())
	}
	if ft != (FaultTransition{Slot: 7, Port: 1, Channel: 2, From: 0, To: 2}) {
		t.Fatalf("fault round-trip = %+v", ft)
	}

	buf.Reset()
	if err := r.WriteNodesJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatalf("node JSONL does not parse: %v\n%s", err, buf.String())
	}
	if raw["healthy"] != float64(1) || raw["retries"] != float64(3) || raw["addr"] != "127.0.0.1:9" {
		t.Fatalf("node round-trip = %v", raw)
	}
}

func TestFlightRecorderDumpRequest(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 1})
	if r.TakeDumpRequest() {
		t.Fatal("dump request pending on a fresh recorder")
	}
	r.RequestDump()
	r.RequestDump() // coalesces
	if !r.TakeDumpRequest() {
		t.Fatal("RequestDump not visible to TakeDumpRequest")
	}
	if r.TakeDumpRequest() {
		t.Fatal("TakeDumpRequest did not consume the request")
	}
	r.NoteDump(5 * time.Millisecond)
	if r.Dumps() != 1 || r.LastDumpLatency() != 5*time.Millisecond {
		t.Fatalf("dump health = (%d, %v)", r.Dumps(), r.LastDumpLatency())
	}
}

func TestFlightRecorderTelemetry(t *testing.T) {
	r := NewFlightRecorder(FlightRecorderConfig{Ports: 1, SnapshotCap: 2, FaultCap: 2, NodeCap: 2})
	r.EnsureShape(1, 1)
	for i := 0; i < 3; i++ { // wrap the snapshot ring: 3 > cap 2
		r.BeginSnapshot().Slot = int64(i)
		r.CommitSnapshot()
	}
	r.NoteDump(2 * time.Second)
	reg := NewRegistry()
	r.RegisterTelemetry(reg)
	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		key := m.Name
		for _, l := range m.Labels {
			key += "{" + l.Key + "=" + l.Value + "}"
		}
		vals[key] = m.Value
	}
	if vals["wdm_recorder_records_total{ring=snapshots}"] != 3 {
		t.Fatalf("snapshot records gauge = %v, want 3", vals["wdm_recorder_records_total{ring=snapshots}"])
	}
	if vals["wdm_recorder_dropped_total{ring=snapshots}"] != 1 {
		t.Fatalf("snapshot dropped gauge = %v, want 1", vals["wdm_recorder_dropped_total{ring=snapshots}"])
	}
	if vals["wdm_recorder_ring_occupancy{ring=snapshots}"] != 1 {
		t.Fatalf("wrapped ring occupancy = %v, want 1", vals["wdm_recorder_ring_occupancy{ring=snapshots}"])
	}
	if vals["wdm_recorder_ring_occupancy{ring=faults}"] != 0 {
		t.Fatalf("empty ring occupancy = %v, want 0", vals["wdm_recorder_ring_occupancy{ring=faults}"])
	}
	if vals["wdm_recorder_dumps_total"] != 1 {
		t.Fatalf("dumps gauge = %v, want 1", vals["wdm_recorder_dumps_total"])
	}
	if vals["wdm_recorder_last_dump_seconds"] != 2 {
		t.Fatalf("last dump seconds = %v, want 2", vals["wdm_recorder_last_dump_seconds"])
	}
	// Decision lane series registered too.
	if _, ok := vals["wdm_recorder_records_total{ring=decisions}"]; !ok {
		t.Fatal("decision ring not registered")
	}
}

func TestRegisterSLO(t *testing.T) {
	h := metrics.NewDurationHistogram()
	// 8 samples: 6 fast (1µs), 2 slow (1s) against a 1ms budget.
	for i := 0; i < 6; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(time.Second)
	h.Observe(time.Second)
	reg := NewRegistry()
	RegisterSLO(reg, "slot", h, time.Millisecond, 0.9)
	vals := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if len(m.Labels) == 1 && m.Labels[0].Value == "slot" {
			vals[m.Name] = m.Value
		}
	}
	if got := vals["wdm_slo_error_fraction"]; got != 0.25 {
		t.Fatalf("error fraction = %v, want 0.25", got)
	}
	// burn = 0.25 / (1 - 0.9) = 2.5
	if got := vals["wdm_slo_burn_rate"]; got < 2.49 || got > 2.51 {
		t.Fatalf("burn rate = %v, want 2.5", got)
	}
	if got := vals["wdm_slo_budget_seconds"]; got != 0.001 {
		t.Fatalf("budget seconds = %v, want 0.001", got)
	}
}

func TestRegisterSLORejectsBadObjective(t *testing.T) {
	for _, objective := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for objective %v", objective)
				}
			}()
			RegisterSLO(NewRegistry(), "x", metrics.NewDurationHistogram(), time.Millisecond, objective)
		}()
	}
}

func TestDurationHistogramFractionAbove(t *testing.T) {
	h := metrics.NewDurationHistogram()
	if h.FractionAbove(0) != 0 {
		t.Fatal("empty histogram fraction != 0")
	}
	h.Observe(100 * time.Nanosecond) // bucket 7
	h.Observe(time.Millisecond)      // bucket 20
	h.Observe(time.Second)           // bucket 30
	if got := h.FractionAbove(time.Millisecond); got < 0.33 || got > 0.34 {
		t.Fatalf("FractionAbove(1ms) = %v, want 1/3", got)
	}
	if got := h.FractionAbove(time.Minute); got != 0 {
		t.Fatalf("FractionAbove(1m) = %v, want 0", got)
	}
	// An observation in the budget's own bucket counts as within budget.
	if got := h.FractionAbove(100 * time.Nanosecond); got < 0.66 || got > 0.67 {
		t.Fatalf("FractionAbove(100ns) = %v, want 2/3", got)
	}
}
