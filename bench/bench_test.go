package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	wdm "wdmsched"
	"wdmsched/internal/core"
	"wdmsched/internal/grant"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/wavelength"
)

var update = flag.Bool("update", false, "rewrite bench/golden and BENCHMARK.json from the current code")

// The benchmark runs from the repository root, as the driver runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestGolden regenerates the sweep tables with -update; without it the quick
// tables are compared here and the full ones by every traced run.
func TestGolden(t *testing.T) {
	for _, quick := range []bool{true, false} {
		if !quick && !*update {
			continue
		}
		for _, id := range sweepIDs {
			tables, err := wdm.RunExperiment(id, wdm.ExperimentConfig{Quick: quick})
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				path := filepath.Join("bench", goldenPath(id, quick))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(renderTables(tables)), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			for _, p := range checkGolden(id, quick, renderTables(tables)) {
				t.Error(p)
			}
		}
	}
}

func TestManifestIsBenchmarkJSON(t *testing.T) {
	if *update {
		if err := os.WriteFile("BENCHMARK.json", manifest(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from the catalogue; run go test -run 'TestManifest|TestGolden' -update in bench/")
	}
}

// catalogueMarkdown renders every metric for README.md.
func catalogueMarkdown() string {
	var b strings.Builder
	b.WriteString("| metric | unit | better | moves | definition |\n|---|---|---|---|---|\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| `%s` | %s | %s | end-to-end, bound %.2f | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	for _, m := range perLayer {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, strings.ReplaceAll(m.Moves, ",", ", "), m.Doc)
	}
	return b.String()
}

// TestReadmeCatalogue keeps the metric catalogue in README.md equal to the
// one the program uses.
func TestReadmeCatalogue(t *testing.T) {
	const begin, end = "<!-- catalogue:begin -->\n", "<!-- catalogue:end -->"
	readme, err := os.ReadFile("bench/README.md")
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok1 := strings.Cut(string(readme), begin)
	_, tail, ok2 := strings.Cut(rest, end)
	if !ok1 || !ok2 {
		t.Fatal("README.md has no catalogue markers")
	}
	want := head + begin + catalogueMarkdown() + end + tail
	if *update {
		if err := os.WriteFile("bench/README.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(readme) != want {
		t.Error("the catalogue in README.md differs from catalogue.go; run go test -run TestReadmeCatalogue -update in bench/")
	}
}

// TestCatalogue holds the catalogue to the limits the benchmark contract
// sets and to this repository's own rule that every per-layer metric names
// the end-to-end metric it should move.
func TestCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	e2e := map[string]bool{}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("%s [%s]: name or unit outside the allowed alphabet", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("%s declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Doc == "" {
			t.Errorf("%s: no description", m.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, m := range perLayer {
		if m.Moves == "none" {
			continue
		}
		for _, target := range strings.Split(m.Moves, ",") {
			if !e2e[target] {
				t.Errorf("%s: moves %q, which is not an end-to-end metric", m.Name, target)
			}
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: name or why outside the limits (why is %d chars)", w.Name, len(w.Why))
		}
		if w.Window%w.Block != 0 || quickWindow%w.Block != 0 || w.SimSlots > quickWindow {
			t.Errorf("workload %s: window, block and lifecycle lengths do not fit", w.Name)
		}
	}
}

// TestQuickRun drives every workload through both kinds of run in -quick
// mode, through the same entry point the command uses. It asserts no
// timing: only that the run is correct and that the emitted names are
// exactly the ones BENCHMARK.json declares.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", w.Name, "-quick", "-seed", "3"}
			if trace == 1 {
				args = append(args, "--trace", "1") // the driver's spelling
			}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.Name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v", w.Name, trace, err)
			}
			if len(res) != 4 {
				t.Errorf("%s trace=%d: result line has %d keys, want correct, attempted, failed, metrics", w.Name, trace, len(res))
			}
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics emitted, %d declared", w.Name, trace, len(line.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := line.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%d: %s not emitted", w.Name, trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%d: %s emitted in %q, declared in %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// Each output check is fed a deliberately wrong result to prove it trips.

func snapshot(offered, granted, dropped int64) interconnect.Snapshot {
	return interconnect.Snapshot{Slots: 1, Offered: offered, Granted: granted, OutputDropped: dropped,
		BusyChannelSlots: granted, PerInput: []int64{granted}, PerChannel: []int64{granted}}
}

func wantProblems(t *testing.T, what string, problems []string, n int) {
	t.Helper()
	if len(problems) != n {
		t.Errorf("%s: %d problems, want %d: %v", what, len(problems), n, problems)
	}
}

func TestCheckSnapshotsTrips(t *testing.T) {
	ref := []interconnect.Snapshot{snapshot(10, 8, 2), snapshot(20, 16, 4)}
	same := []interconnect.Snapshot{snapshot(10, 8, 2)}
	wantProblems(t, "identical prefix", checkSnapshots("seq", ref, "pool", same), 0)
	wantProblems(t, "diverging grant count", checkSnapshots("seq", ref, "pool", []interconnect.Snapshot{snapshot(10, 7, 3)}), 1)
	wantProblems(t, "lost packet", checkSnapshots("seq", ref, "pool", []interconnect.Snapshot{snapshot(10, 8, 1)}), 2)
	wantProblems(t, "nothing to compare", checkSnapshots("seq", ref, "pool", nil), 1)
}

// greedyScheduler grants every request straight through, occupied or not,
// and claims a matching one larger than it made.
type greedyScheduler struct{ core.Scheduler }

func (greedyScheduler) Schedule(count []int, occupied []bool, res *core.Result) {
	res.Reset()
	for w, c := range count {
		if c > 0 {
			res.ByOutput[w] = w
			res.Granted[w] = 1
			res.Size++
		}
	}
	res.Size++
}

// emptyScheduler returns the empty matching: feasible, never maximum.
type emptyScheduler struct{ core.Scheduler }

func (emptyScheduler) Schedule(count []int, occupied []bool, res *core.Result) { res.Reset() }

func TestProbeChecksTrip(t *testing.T) {
	conv, err := wavelength.New(wavelength.Circular, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []interconnect.BatchRequest{{Port: 0, Count: []int{2, 0, 1, 0, 0, 0, 0, 0}, Occupied: make([]bool, 8)}}
	out := []interconnect.BatchResult{{Port: 0, Res: core.NewResult(8)}}
	for _, c := range []struct {
		name  string
		sched core.Scheduler
		want  int
	}{{"exact", nil, 0}, {"infeasible result", greedyScheduler{}, 1}, {"smaller than Hopcroft-Karp", emptyScheduler{}, 1}} {
		p, err := newProbe(conv, 1, "exact")
		if err != nil {
			t.Fatal(err)
		}
		if c.sched != nil {
			p.scheds[0] = c.sched
		}
		if err := p.ScheduleBatch(0, reqs, out); err != nil { // slot 0 is a Hopcroft–Karp sample
			t.Fatal(err)
		}
		wantProblems(t, c.name, p.problems("probe"), c.want)
	}
}

func TestCheckFallbackAndLifecycleTrip(t *testing.T) {
	wantProblems(t, "no fallback", checkFallback(0), 0)
	wantProblems(t, "three fallbacks", checkFallback(3), 1)
	wantProblems(t, "same counters", checkLifecycle(10, 8, snapshot(10, 8, 2)), 0)
	wantProblems(t, "one grant short", checkLifecycle(10, 7, snapshot(10, 8, 2)), 1)
}

func TestGrantChecksTrip(t *testing.T) {
	good := grant.Ledger{Submitted: 10, Admitted: 10, Granted: 7, Rejected: 3}
	tally := verdictTally{Granted: 7, Rejected: 3}
	wantProblems(t, "balanced and equal", checkGrantLedger(good, good, tally, 10, true), 0)
	unbalanced := good
	unbalanced.Granted = 6
	wantProblems(t, "server ledger loses a request", checkGrantLedger(unbalanced, good, tally, 10, true), 2)
	wantProblems(t, "client saw another split", checkGrantLedger(good, good, verdictTally{Granted: 8, Rejected: 2}, 10, true), 2)
	retried := grant.Ledger{Submitted: 10, Admitted: 9, Granted: 7, Rejected: 2, Retried: 1}
	rt := verdictTally{Granted: 7, Rejected: 2, Retried: 1}
	wantProblems(t, "RETRY in a closed loop", checkGrantLedger(retried, retried, rt, 10, true), 1)
	wantProblems(t, "RETRY in the open loop", checkGrantLedger(retried, retried, rt, 10, false), 0)

	var ids idTracker
	ids.submitted(3)
	ids.verdict(0)
	ids.verdict(0) // twice
	ids.verdict(7) // never submitted; 1 and 2 never answered
	wantProblems(t, "ids", ids.problems(), 3)
	var ok idTracker
	ok.submitted(2)
	ok.verdict(1)
	ok.verdict(0)
	wantProblems(t, "every id once", ok.problems(), 0)
}

func TestSweepChecksTrip(t *testing.T) {
	tables, err := wdm.RunExperiment("S14", wdm.ExperimentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	wantProblems(t, "S14 as computed", checkMakespanBound(tables), 0)
	wantProblems(t, "golden as computed", checkGolden("S14", true, renderTables(tables)), 0)
	wantProblems(t, "one digit changed", checkGolden("S14", true, strings.Replace(renderTables(tables), "1", "2", 1)), 1)

	beat := metrics.NewTable("S14", "makespan", "LB")
	beat.AddRow("42", "43")
	wantProblems(t, "makespan below the bound", checkMakespanBound([]*metrics.Table{beat}), 1)
	wantProblems(t, "no S14 rows", checkMakespanBound(nil), 1)
}
