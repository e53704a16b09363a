// Command bench is the repository's performance benchmark: for each
// workload (a switch shape and its traffic) it times one slot on every
// engine, one simulator lifecycle and one grant round trip, from outside,
// checks the outputs, and prints every metric by name with its unit. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"wdmsched/bench/stats"
)

// outDir receives the trace and the full result documents.
const outDir = "bench/out"

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	quick     bool
	jsonOut   bool
	selfcheck int
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run in this process; \"all\" runs each in a child process, untraced then traced")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measuring time of one run, seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.quick, "quick", false, "tiny windows and budgets: exercises every path, measures nothing")
	fs.BoolVar(&o.jsonOut, "json", false, "print the full result document (fingerprint, every value, block statistics) as JSON")
	fs.IntVar(&o.selfcheck, "selfcheck", 0, "A/A mode: run every workload this many times per set, two sets, on differing seeds, and hold spreads and medians to the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if o.quick && o.seconds == runSeconds {
		o.seconds = 0.4
	}
	switch {
	case o.selfcheck > 0:
		return selfcheck(o, stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	return runOne(w, o, stdout, stderr)
}

// document is the full record of one run.
type document struct {
	Workload    string                   `json:"workload"`
	Fingerprint fingerprint              `json:"fingerprint"`
	Correct     bool                     `json:"correct"`
	Attempted   int64                    `json:"attempted"`
	Failed      int64                    `json:"failed"`
	Failures    []string                 `json:"failures,omitempty"`
	Metrics     map[string]metricValue   `json:"metrics"`
	Blocks      map[string]stats.Summary `json:"blocks,omitempty"`
	Baselines   map[string]float64       `json:"baselines,omitempty"` // traced run: the end-to-end metrics on its smaller budget
	SelfTimes   []selfTime               `json:"self_times,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne measures one workload in this process.
func runOne(w workloadDef, o options, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	steal := startStealMeter()
	budget := time.Duration(o.seconds * float64(time.Second))
	ck := &checks{}
	values := map[string]float64{}
	var blocks map[string]stats.Summary
	var self []selfTime
	baselines := map[string]float64{}
	var err error
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
		self, err = runTraced(w, o, budget, ck, values, baselines)
	} else {
		blocks, err = runUntraced(w, o, budget, ck, values)
	}
	if err != nil {
		// A run that could not finish has no result: the driver must see a
		// failure, not a partial set of numbers.
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
		for _, m := range ck.messages {
			fmt.Fprintf(stderr, "bench: failed check: %s\n", m)
		}
		return 1
	}

	doc := document{
		Workload:    w.Name,
		Fingerprint: newFingerprint(o.seed, o.seconds, o.quick, o.trace == 1),
		Correct:     ck.failed == 0,
		Attempted:   ck.attempted,
		Failed:      ck.failed,
		Failures:    ck.messages,
		Metrics:     map[string]metricValue{},
		Blocks:      blocks,
		Baselines:   baselines,
		SelfTimes:   self,
	}
	doc.Fingerprint.StealShare = steal.share()
	if o.trace == 1 {
		values["bench.steal_share"] = doc.Fingerprint.StealShare
		values["fail_share"] = ck.failShare()
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.Name, d.Name)
			return 1
		}
		doc.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	if err := writeDocument(doc, o); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	if o.jsonOut {
		b, _ := json.Marshal(doc) // plain data
		fmt.Fprintf(stdout, "%s\n", b)
	} else {
		printDocument(stdout, doc, defs)
	}
	for _, m := range ck.messages {
		fmt.Fprintf(stderr, "bench: failed check: %s\n", m)
	}
	b, _ := json.Marshal(resultLine{doc.Correct, doc.Attempted, doc.Failed, doc.Metrics})
	fmt.Fprintf(stdout, "%s\n", b)
	if !doc.Correct {
		return 1
	}
	return 0
}

func runUntraced(w workloadDef, o options, budget time.Duration, ck *checks, values map[string]float64) (map[string]stats.Summary, error) {
	run, err := startEndToEnd(w, o.seed, o.quick, setupsPerRun, nil, -1, ck)
	if err != nil {
		return nil, err
	}
	defer run.stop()
	if err := run.measure(budget); err != nil {
		return nil, err
	}
	run.stop()
	run.values(values)
	return run.blockSummaries(), nil
}

func docPath(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s.trace%d.json", workload, trace))
}

func writeDocument(doc document, o options) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(docPath(doc.Workload, o.trace), append(b, '\n'), 0o644)
}

func printDocument(w io.Writer, doc document, defs []metricDef) {
	fp := doc.Fingerprint
	fmt.Fprintf(w, "# %s  seed=%d seconds=%g trace=%v quick=%v\n", doc.Workload, fp.Seed, fp.Seconds, fp.Trace, fp.Quick)
	fmt.Fprintf(w, "# %s, nproc=%d GOMAXPROCS=%d %s commit=%s steal=%.4f\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit, fp.StealShare)
	for _, d := range defs {
		v := doc.Metrics[d.Name]
		fmt.Fprintf(w, "%-34s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if s, ok := doc.Blocks[d.Name]; ok {
			fmt.Fprintf(w, "  blocks=%d iqr=%.1f%%", s.N, 100*s.IQRShare())
		}
		if d.Bound > 0 {
			fmt.Fprintf(w, "  bound=%.2f", d.Bound)
		}
		fmt.Fprintln(w)
	}
	for _, d := range endToEnd {
		if v, ok := doc.Baselines[d.Name]; ok {
			fmt.Fprintf(w, "# baseline %-25s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if len(doc.SelfTimes) > 0 {
		fmt.Fprintf(w, "# span self times (span minus children), see %s/%s.trace.json\n", outDir, doc.Workload)
		for _, s := range doc.SelfTimes {
			fmt.Fprintf(w, "#   %-22s n=%-7d total=%9.3fms self=%9.3fms\n", s.Name, s.Count, float64(s.TotalNS)/1e6, float64(s.Self)/1e6)
		}
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d correct=%v\n", doc.Attempted, doc.Failed, doc.Correct)
}
