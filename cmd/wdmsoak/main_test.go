package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wdmsched/internal/soak"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
)

func runSoak(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestSoakCleanAllEngines is the acceptance pipeline in miniature: all
// three engines in lockstep under Markov channel/converter faults and
// cluster transport faults, with span dumps written and checked — zero
// violations, exit 0.
func TestSoakCleanAllEngines(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	bundle := filepath.Join(dir, "incident.tgz")
	code, out, errb := runSoak(t,
		"-slots", "1500", "-resync", "250", "-n", "4", "-k", "8",
		"-engines", "sequential,distributed,cluster",
		"-spandir", dir, "-report", report, "-bundle", bundle)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb, out)
	}
	for _, want := range []string{"soak           ok", "containment", "totals"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The first output line is the full effective config as JSON, so any
	// run is reproducible from its log alone.
	first, _, _ := strings.Cut(out, "\n")
	rawCfg, ok := strings.CutPrefix(first, "config         ")
	if !ok {
		t.Fatalf("first line is not the effective config: %q", first)
	}
	var cfg soak.Config
	if err := json.Unmarshal([]byte(rawCfg), &cfg); err != nil {
		t.Fatalf("config line is not JSON: %v\n%s", err, rawCfg)
	}
	if cfg.Seed != 1 || cfg.Slots != 1500 || cfg.Resync != 250 || len(cfg.Engines) != 3 {
		t.Errorf("config line incomplete: %+v", cfg)
	}
	if _, err := os.Stat(report); !os.IsNotExist(err) {
		t.Errorf("clean run wrote an incident report: %v", err)
	}
	if _, err := os.Stat(bundle); !os.IsNotExist(err) {
		t.Errorf("clean run wrote an incident bundle: %v", err)
	}
	for _, name := range []string{"ctrl.spans", "node0.spans", "node1.spans"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("span dump %s not written: %v", name, err)
		}
	}
}

func readIncident(t *testing.T, path string) soak.Incident {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("incident report not written: %v", err)
	}
	var inc soak.Incident
	if err := json.Unmarshal(raw, &inc); err != nil {
		t.Fatalf("incident report is not JSON: %v\n%s", err, raw)
	}
	return inc
}

// TestSoakCatchesLedgerBug proves the checker fires: a deliberately
// corrupted grant ledger must be caught at the first resync point with a
// non-zero exit and a parseable JSON incident report.
func TestSoakCatchesLedgerBug(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	bundle := filepath.Join(dir, "incident.tgz")
	code, out, errb := runSoak(t,
		"-slots", "4000", "-resync", "500", "-n", "4", "-k", "8",
		"-engines", "sequential,distributed", "-chaosbug", "ledger",
		"-report", report, "-bundle", bundle)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	inc := readIncident(t, report)
	if inc.Invariant != "ledger" {
		t.Errorf("invariant %q, want ledger", inc.Invariant)
	}
	if inc.Slot <= 0 || inc.Detail == "" || inc.Config.Seed != 1 {
		t.Errorf("incomplete incident: %+v", inc)
	}
	if !strings.Contains(errb, "INVARIANT VIOLATION") {
		t.Errorf("stderr missing violation banner: %s", errb)
	}

	// Capture → replay → reproduce, end to end: the dumped bundle alone
	// must deterministically re-create the violation.
	b, err := telemetry.ReadBundleFile(bundle)
	if err != nil {
		t.Fatalf("incident bundle does not decode: %v", err)
	}
	if b.Manifest.Trigger != "violation" {
		t.Errorf("bundle trigger %q, want violation", b.Manifest.Trigger)
	}
	rep, err := soak.Replay(b, soak.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("replay did not reproduce the violation: %v", err)
	}
}

// TestSoakCatchesEquivalenceBug: perturbing one engine's arrival seed
// must surface as an equivalence violation between engines.
func TestSoakCatchesEquivalenceBug(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	code, out, errb := runSoak(t,
		"-slots", "4000", "-resync", "500", "-n", "4", "-k", "8",
		"-engines", "sequential,distributed", "-chaosbug", "equivalence",
		"-report", report, "-bundle", filepath.Join(dir, "incident.tgz"))
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if inc := readIncident(t, report); inc.Invariant != "equivalence" {
		t.Errorf("invariant %q, want equivalence", inc.Invariant)
	}
}

// TestSoakBulkMakespan: the closed-loop open-shop workload drains, stops
// on its own, and reports the makespan against the analytic lower bound.
func TestSoakBulkMakespan(t *testing.T) {
	code, out, errb := runSoak(t,
		"-workload", "bulk", "-bulkunits", "5000", "-n", "4", "-k", "8", "-resync", "250",
		"-engines", "sequential,distributed",
		"-report", filepath.Join(t.TempDir(), "report.json"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb, out)
	}
	if !strings.Contains(out, "bulk drained") || !strings.Contains(out, "makespan") {
		t.Errorf("bulk output incomplete:\n%s", out)
	}
}

// TestSoakTraceReplay records a compressed trace and soaks both local
// engines on its replay.
func TestSoakTraceReplay(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "soak.ctrace")
	gen, err := traffic.NewHeavyTail(traffic.Config{N: 4, K: 8, Seed: 3}, 0.6, 1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := traffic.NewTraceWriter(f, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf []traffic.Packet
	for s := 0; s < 2000; s++ {
		buf = gen.Generate(s, buf[:0])
		if err := tw.WriteSlot(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	code, out, errb := runSoak(t,
		"-workload", "trace", "-trace", tracePath, "-slots", "2000", "-resync", "250",
		"-n", "4", "-k", "8", "-engines", "sequential,distributed",
		"-report", filepath.Join(dir, "report.json"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb, out)
	}
	if !strings.Contains(out, "ctrace(N=4,k=8)") {
		t.Errorf("output does not name the trace workload:\n%s", out)
	}
}

// TestSoakTimeBudget: a wall-clock bound alone must terminate the run.
func TestSoakTimeBudget(t *testing.T) {
	code, out, errb := runSoak(t,
		"-time", "300ms", "-n", "4", "-k", "8", "-resync", "200",
		"-engines", "sequential",
		"-report", filepath.Join(t.TempDir(), "report.json"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb, out)
	}
	if !strings.Contains(out, "time budget") {
		t.Errorf("output missing stop reason:\n%s", out)
	}
}

// TestSoakUsageErrors: malformed invocations exit 2 without running.
func TestSoakUsageErrors(t *testing.T) {
	cases := map[string][]string{
		"no budget":        {"-workload", "heavytail"},
		"bad engine":       {"-slots", "100", "-engines", "quantum"},
		"bad workload":     {"-slots", "100", "-workload", "fractal"},
		"bad chaosbug":     {"-slots", "100", "-chaosbug", "gremlins"},
		"equiv one engine": {"-slots", "100", "-engines", "sequential", "-chaosbug", "equivalence"},
		"trace sans path":  {"-slots", "100", "-workload", "trace"},
		"bulk diurnal":     {"-workload", "bulk", "-diurnal", "100"},
		"bad resync":       {"-slots", "100", "-resync", "0"},
	}
	for name, args := range cases {
		if code, out, _ := runSoak(t, args...); code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", name, code, out)
		}
	}
}
