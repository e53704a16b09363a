// Command wdmbench regenerates every table and figure of the reproduction
// (see DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured
// notes).
//
// Usage:
//
//	wdmbench                 # run every experiment, ASCII tables
//	wdmbench -exp P8         # one experiment
//	wdmbench -csv            # CSV output
//	wdmbench -quick          # reduced sizes (seconds instead of minutes)
//	wdmbench -list           # list experiment IDs and titles
//	wdmbench -engine         # slot-engine run-time metrics (latency, allocs)
//	wdmbench -faults         # graceful-degradation study under converter faults
//	wdmbench -json           # structured JSON (perf-trajectory record; make bench-save)
//	wdmbench -validate       # verify a -json document read from stdin (CI gate)
//	wdmbench -diff           # compare the latest BENCH_<n>.json against BENCH_0.json
//
// -diff is the bench-regression gate (make bench-diff): it compares every
// duration cell of the newest saved benchmark record against the baseline,
// matching tables by experiment and index, rows by first cell and columns
// by header, and exits non-zero when any cell is worse by more than
// -threshold (fractional) and -mindelta (absolute) at once.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/sim"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command against the given argument list and streams;
// it returns the process exit code. Extracted from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment ID to run (default: all)")
		csv     = fs.Bool("csv", false, "emit CSV instead of ASCII tables")
		jsonOut = fs.Bool("json", false, "emit one JSON document instead of ASCII tables (see make bench-save)")
		quick   = fs.Bool("quick", false, "reduced sweep sizes")
		list    = fs.Bool("list", false, "list experiments and exit")
		engine  = fs.Bool("engine", false, "report slot-engine run-time metrics instead of paper experiments")
		faults  = fs.Bool("faults", false, "report degraded-mode behavior under injected converter/channel faults")
		telem   = fs.Bool("telemetry", false, "run a short instrumented simulation and dump its Prometheus metrics")
		slots   = fs.Int("slots", 0, "simulation slots per data point (0 = default)")
		trials  = fs.Int("trials", 0, "random trials per data point (0 = default)")
		seed    = fs.Uint64("seed", 0, "random seed (0 = default)")
		outDir  = fs.String("o", "", "also write one CSV file per table into this directory")

		validate  = fs.Bool("validate", false, "read a -json document from stdin and verify its structure; non-zero exit when malformed")
		diff      = fs.Bool("diff", false, "compare the latest BENCH_<n>.json against the baseline; non-zero exit on regression")
		baseline  = fs.String("baseline", "", "baseline record for -diff (default BENCH_0.json)")
		against   = fs.String("against", "", "record to compare for -diff (default: highest-numbered BENCH_<n>.json, n >= 1)")
		threshold = fs.Float64("threshold", 1.0, "fractional slowdown that counts as a regression for -diff (1.0 = 2x)")
		minDelta  = fs.Duration("mindelta", 100*time.Microsecond, "absolute slowdown floor for -diff; smaller deltas are noise")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *validate {
		if err := runValidate(os.Stdin, stdout); err != nil {
			fmt.Fprintf(stderr, "wdmbench: %v\n", err)
			return 1
		}
		return 0
	}

	if *diff {
		regressions, err := runDiff(stdout, *baseline, *against, *threshold, *minDelta)
		if err != nil {
			fmt.Fprintf(stderr, "wdmbench: %v\n", err)
			return 1
		}
		if regressions > 0 {
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range sim.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := sim.RunConfig{Quick: *quick, Slots: *slots, Trials: *trials, Seed: *seed}

	if *jsonOut && (*csv || *telem) {
		fmt.Fprintln(stderr, "wdmbench: -json cannot combine with -csv or -telemetry")
		return 2
	}

	if *telem {
		if err := runTelemetryDump(stdout, cfg); err != nil {
			fmt.Fprintf(stderr, "wdmbench: telemetry dump failed: %v\n", err)
			return 1
		}
		return 0
	}

	if *engine || *faults {
		var (
			mode   string
			tables []*metrics.Table
			err    error
		)
		if *faults {
			mode = "faults"
			var t *metrics.Table
			if t, err = runFaultStudy(cfg); err == nil {
				tables = []*metrics.Table{t}
			}
		} else {
			mode = "engine"
			tables, err = runEngineStudy(cfg)
		}
		if err != nil {
			fmt.Fprintf(stderr, "wdmbench: %s study failed: %v\n", mode, err)
			return 1
		}
		switch {
		case *jsonOut:
			if err := writeBenchJSON(stdout, cfg, []benchGroup{{ID: mode, Title: tables[0].Title, Tables: tables}}); err != nil {
				fmt.Fprintf(stderr, "wdmbench: %v\n", err)
				return 1
			}
		case *csv:
			for _, t := range tables {
				fmt.Fprintf(stdout, "# %s\n%s\n", t.Title, t.CSV())
			}
		default:
			for _, t := range tables {
				fmt.Fprintln(stdout, t.ASCII())
			}
		}
		return 0
	}

	var toRun []sim.Experiment
	if *exp == "" {
		toRun = sim.All()
	} else {
		for _, e := range sim.All() {
			if e.ID == *exp {
				toRun = []sim.Experiment{e}
				break
			}
		}
		if len(toRun) == 0 {
			fmt.Fprintf(stderr, "wdmbench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "wdmbench: %v\n", err)
			return 1
		}
	}
	return runExperiments(toRun, cfg, *csv, *jsonOut, *outDir, stdout, stderr)
}

// benchGroup is one experiment's worth of tables in the -json document.
type benchGroup struct {
	ID     string           `json:"id"`
	Title  string           `json:"title"`
	Tables []*metrics.Table `json:"tables"`
}

// runValidate verifies a -json benchmark document read from r: it must
// parse, contain at least one result group, and every table must have a
// header with rows of matching width. This is the CI structured-output
// gate, replacing an inline python JSON check.
func runValidate(r io.Reader, stdout io.Writer) error {
	var doc struct {
		Quick   bool         `json:"quick"`
		Results []benchGroup `json:"results"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("parsing bench document: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("trailing data after bench document")
	}
	if len(doc.Results) == 0 {
		return fmt.Errorf("bench document has no results")
	}
	var tables, cells int
	for _, g := range doc.Results {
		if g.ID == "" {
			return fmt.Errorf("result group %d has no id", tables)
		}
		if len(g.Tables) == 0 {
			return fmt.Errorf("result group %q has no tables", g.ID)
		}
		for _, t := range g.Tables {
			tables++
			if len(t.Header) == 0 {
				return fmt.Errorf("table %q in %q has no header", t.Title, g.ID)
			}
			if len(t.Rows) == 0 {
				return fmt.Errorf("table %q in %q has no rows", t.Title, g.ID)
			}
			for i, row := range t.Rows {
				if len(row) != len(t.Header) {
					return fmt.Errorf("table %q in %q: row %d has %d cells, header has %d",
						t.Title, g.ID, i, len(row), len(t.Header))
				}
				cells += len(row)
			}
		}
	}
	fmt.Fprintf(stdout, "bench document ok: %d groups, %d tables, %d cells\n",
		len(doc.Results), tables, cells)
	return nil
}

// writeBenchJSON emits the structured benchmark document -json and the
// make bench-save target consume: the run configuration plus every table,
// rows as strings exactly as the ASCII renderer would print them.
func writeBenchJSON(w io.Writer, cfg sim.RunConfig, groups []benchGroup) error {
	doc := struct {
		Quick   bool         `json:"quick"`
		Slots   int          `json:"slots,omitempty"`
		Trials  int          `json:"trials,omitempty"`
		Seed    uint64       `json:"seed,omitempty"`
		Results []benchGroup `json:"results"`
	}{cfg.Quick, cfg.Slots, cfg.Trials, cfg.Seed, groups}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func runExperiments(toRun []sim.Experiment, cfg sim.RunConfig, csv, jsonOut bool, outDir string, stdout, stderr io.Writer) int {
	var groups []benchGroup
	for _, e := range toRun {
		if !jsonOut {
			fmt.Fprintf(stdout, "### %s — %s\n\n", e.ID, e.Title)
		}
		tables, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "wdmbench: %s failed: %v\n", e.ID, err)
			return 1
		}
		if jsonOut {
			groups = append(groups, benchGroup{ID: e.ID, Title: e.Title, Tables: tables})
			continue
		}
		for ti, t := range tables {
			if csv {
				fmt.Fprintf(stdout, "# %s\n%s\n", t.Title, t.CSV())
			} else {
				fmt.Fprintln(stdout, t.ASCII())
			}
			if outDir != "" {
				name := fmt.Sprintf("%s_%d.csv", e.ID, ti)
				if err := os.WriteFile(filepath.Join(outDir, name), []byte(t.CSV()), 0o644); err != nil {
					fmt.Fprintf(stderr, "wdmbench: writing %s: %v\n", name, err)
					return 1
				}
			}
		}
	}
	if jsonOut {
		if err := writeBenchJSON(stdout, cfg, groups); err != nil {
			fmt.Fprintf(stderr, "wdmbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// runEngineStudy measures the slot engine itself rather than the paper's
// traffic metrics: the engine-mode table (sequential loop vs worker pool)
// plus the word-parallel kernel table (scalar vs packed schedulers at
// large k on the contended hot-band workload).
func runEngineStudy(cfg sim.RunConfig) ([]*metrics.Table, error) {
	t, err := runEngineModes(cfg)
	if err != nil {
		return nil, err
	}
	kt, err := runKernelStudy(cfg)
	if err != nil {
		return nil, err
	}
	gt, err := runGrantStudy(cfg)
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{t, kt, gt}, nil
}

// runEngineModes compares the sequential loop against the persistent
// worker pool on the same seeded workload: per-slot scheduling latency,
// steady-state allocation rate, and pool utilization.
func runEngineModes(cfg sim.RunConfig) (*metrics.Table, error) {
	const n, k, load = 16, 16, 0.9
	slots := 4000
	if cfg.Quick {
		slots = 500
	}
	if cfg.Slots > 0 {
		slots = cfg.Slots
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	conv, err := wavelength.New(wavelength.Circular, k, 1, 1)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("Engine run-time metrics — N=%d, k=%d, circular(1,1), Bernoulli load %.1f, %d slots", n, k, load, slots),
		Header: []string{"mode", "slot p50", "slot p95", "slot max", "slot mean",
			"allocs/slot", "busiest port", "speedup"},
	}
	for _, mode := range []struct {
		name        string
		distributed bool
	}{{"sequential", false}, {"worker-pool", true}} {
		sw, err := interconnect.New(interconnect.Config{
			N: n, Conv: conv, Seed: seed, Distributed: mode.distributed,
		})
		if err != nil {
			return nil, err
		}
		gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: seed + 1}, load)
		if err != nil {
			return nil, err
		}
		st, err := sw.Run(gen, slots)
		if err != nil {
			return nil, err
		}
		es := st.Engine
		busiest := 0.0
		for o := range es.PortBusy {
			if f := es.PortBusyFraction(o); f > busiest {
				busiest = f
			}
		}
		allocs := "n/a"
		if es.AllocsPerSlot.Valid() {
			allocs = fmt.Sprintf("%.2f", es.AllocsPerSlot.Value())
		}
		t.AddRowf(mode.name,
			es.SlotLatency.Quantile(0.50), es.SlotLatency.Quantile(0.95),
			es.SlotLatency.Max(), es.SlotLatency.Mean(),
			allocs, fmt.Sprintf("%.2f", busiest), fmt.Sprintf("%.2f", es.Speedup()))
	}
	t.AddNote("allocs/slot is a process-global runtime/metrics heap-allocation delta: an upper bound on the engine's own rate.")
	t.AddNote("speedup = total port scheduling time / scheduling wall time; up to the crew size for the worker crew.")
	return t, nil
}

// runKernelStudy measures the word-parallel BFA kernel — what "exact"
// builds on circular conversion — against the scalar Table 3 reference at
// large k: the same switch and the same seeded hot-band workload (every
// packet on one of the first band wavelengths, all destined to one output
// fiber), with only Config.Scheduler differing between rows. The reference
// is named explicitly: with "exact" on both rows the table would compare
// the kernel to itself. The last column is the reference/kernel ratio of
// mean slot latency at the same k.
func runKernelStudy(cfg sim.RunConfig) (*metrics.Table, error) {
	const n, load, band, deg = 8, 0.9, 8, 20
	slots := 2000
	if cfg.Quick {
		slots = 300
	}
	if cfg.Slots > 0 {
		slots = cfg.Slots
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("Word-parallel kernels — slot latency, N=%d, circular(%d,%d), hot-band load %.1f on %d wavelengths, %d slots",
			n, deg, deg, load, band, slots),
		Header: []string{"shape", "slot p50", "slot p95", "slot mean",
			"allocs/slot", "speedup vs scalar"},
	}
	for _, k := range []int{128, 256} {
		conv, err := wavelength.New(wavelength.Circular, k, deg, deg)
		if err != nil {
			return nil, err
		}
		var scalarMean time.Duration
		for _, sched := range []string{"break-first-available", "exact"} {
			sw, err := interconnect.New(interconnect.Config{
				N: n, Conv: conv, Seed: seed, Scheduler: sched,
			})
			if err != nil {
				return nil, err
			}
			gen, err := traffic.NewHotBand(traffic.Config{N: n, K: k, Seed: seed + 1}, load, 0, band)
			if err != nil {
				return nil, err
			}
			st, err := sw.Run(gen, slots)
			if err != nil {
				return nil, err
			}
			es := st.Engine
			mean := es.SlotLatency.Mean()
			speed := "1.00x" // the scalar row is its own reference
			if sched == "exact" {
				if mean > 0 {
					speed = fmt.Sprintf("%.2fx", float64(scalarMean)/float64(mean))
				}
			} else {
				scalarMean = mean
			}
			allocs := "n/a"
			if es.AllocsPerSlot.Valid() {
				allocs = fmt.Sprintf("%.2f", es.AllocsPerSlot.Value())
			}
			t.AddRowf(fmt.Sprintf("k=%d %s", k, sched),
				es.SlotLatency.Quantile(0.50), es.SlotLatency.Quantile(0.95),
				mean, allocs, speed)
		}
	}
	t.AddNote("the scalar reference (break-first-available) and exact (the word-parallel kernel; fast is an alias) run the identical seeded workload; their Stats are byte-identical, only the kernel differs.")
	return t, nil
}

// runFaultStudy sweeps per-slot converter failure probability on one
// interconnect shape and reports throughput alongside the degraded-mode
// statistics — the CLI face of experiment S13 (which sweeps conversion
// degrees instead).
func runFaultStudy(cfg sim.RunConfig) (*metrics.Table, error) {
	const n, k, load, repair = 8, 16, 0.9, 0.1
	slots := 4000
	if cfg.Quick {
		slots = 500
	}
	if cfg.Slots > 0 {
		slots = cfg.Slots
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	conv, err := wavelength.New(wavelength.Circular, k, 1, 1)
	if err != nil {
		return nil, err
	}
	t := &metrics.Table{
		Title: fmt.Sprintf("Graceful degradation — N=%d, k=%d, circular d=3, Bernoulli load %.1f, repair %.1f, %d slots",
			n, k, load, repair, slots),
		Header: []string{"p(conv fail)", "throughput", "loss", "healthy chans (mean)",
			"degraded slots", "lost grants", "killed conns"},
	}
	for _, p := range []float64{0, 0.001, 0.01, 0.05, 0.2} {
		var inj fault.Injector
		if p > 0 {
			inj, err = fault.NewMarkov(fault.MarkovConfig{
				N: n, K: k, Seed: seed + 0xfa17,
				ConverterFail: p, ConverterRepair: repair,
			})
			if err != nil {
				return nil, err
			}
		}
		sw, err := interconnect.New(interconnect.Config{N: n, Conv: conv, Seed: seed, Faults: inj})
		if err != nil {
			return nil, err
		}
		gen, err := traffic.NewBernoulli(traffic.Config{
			N: n, K: k, Seed: seed + 1,
			Hold: traffic.HoldingTime{Mean: 2}, // multi-slot connections expose mid-hold kills
		}, load)
		if err != nil {
			return nil, err
		}
		st, err := sw.Run(gen, slots)
		if err != nil {
			return nil, err
		}
		healthy := float64(n * k)
		var degFrac float64
		var lost, killed int64
		if st.Fault != nil {
			healthy = st.Fault.MeanHealthyChannels()
			degFrac = st.Fault.DegradedFraction(st.Slots)
			lost = st.Fault.LostGrants.Value()
			killed = st.Fault.KilledConnections.Value()
		}
		t.AddRowf(fmt.Sprintf("%.3f", p),
			fmt.Sprintf("%.4f", st.Throughput(n, k)),
			fmt.Sprintf("%.4f", st.LossRate()),
			fmt.Sprintf("%.1f", healthy),
			fmt.Sprintf("%.1f%%", 100*degFrac),
			lost, killed)
	}
	t.AddNote("converter-failed channels still carry their own wavelength; schedulers stay exact on the degraded graph.")
	t.AddNote("lost grants: healthy-graph matching minus degraded matching, same instance, summed over ports and slots.")
	return t, nil
}

// runTelemetryDump runs one short instrumented simulation — registry and
// decision tracer attached, worker-pool engine, fault injection on — and
// dumps every registered metric in the Prometheus text format. Useful for
// eyeballing the full wdm_* metric surface without standing up a scraper.
func runTelemetryDump(stdout io.Writer, cfg sim.RunConfig) error {
	const n, k = 8, 16
	slots := cfg.Slots
	if slots == 0 {
		slots = 2000
		if cfg.Quick {
			slots = 200
		}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}

	conv, err := wavelength.NewSymmetric(wavelength.Circular, k, 3)
	if err != nil {
		return err
	}
	faults, err := fault.NewMarkov(fault.MarkovConfig{
		N: n, K: k, Seed: seed + 1,
		ConverterFail: 0.005, ConverterRepair: 0.2,
	})
	if err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	sw, err := interconnect.New(interconnect.Config{
		N: n, Conv: conv, Seed: seed,
		Distributed: true, Faults: faults,
		Telemetry: reg,
		Trace:     telemetry.NewDecisionTracer(n, 1<<12),
	})
	if err != nil {
		return err
	}
	gen, err := traffic.NewBernoulli(traffic.Config{
		N: n, K: k, Seed: seed, Hold: traffic.HoldingTime{Mean: 2},
	}, 0.9)
	if err != nil {
		return err
	}
	if _, err := sw.Run(gen, slots); err != nil {
		return err
	}
	return telemetry.WritePrometheus(stdout, reg.Snapshot())
}
