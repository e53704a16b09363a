// Command wdmtrace records synthetic workload traces to disk and inspects
// them, so scheduler variants can be compared on byte-identical arrivals;
// wdmsoak -workload trace replays the same files.
// It can also replay a trace through a switch with the decision tracer
// attached and dump every per-slot scheduling decision.
//
// Usage:
//
//	wdmtrace -gen -o trace.bin -n 8 -k 16 -load 0.9 -slots 10000
//	wdmtrace -info trace.bin
//	wdmtrace -decisions trace.bin -dump decisions.jsonl
//	wdmtrace -decisions trace.bin -format chrome -dump run.trace.json
//
// -merge joins the span dumps of a traced cluster run — the controller's
// wdmsim -spandump file plus each node's /spans endpoint output — into one
// Chrome trace_event timeline (load it in chrome://tracing or Perfetto)
// with all node clocks corrected onto the controller's, and prints the
// per-stage latency attribution table. -check additionally verifies the
// cross-process invariants (node spans contained in their RPC windows,
// stages summing to slot latency):
//
//	wdmtrace -merge -mout merged.trace.json -check ctrl.spans node0.spans node1.spans
//
// -exemplars renders a grant-path exemplar dump — the exemplars.jsonl
// entry of a wdmserve incident bundle — as a standalone Chrome timeline:
// one lane per lifecycle stage, a span per stage duration, and a flow
// chain per request stitching its waterfall across the lanes:
//
//	wdmtrace -exemplars exemplars.jsonl -xout exemplars.trace.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wdmsched/internal/cli"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command; extracted from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sh := cli.Switch{N: 8, K: 16, Kind: "circular", D: 3, Scheduler: "exact", Selector: "round-robin", Seed: 1}
	sh.Register(fs, "n", "k", "kind", "d", "scheduler", "selector", "seed", "distributed")
	wl := cli.Workload{Name: "bernoulli", Load: 0.8, HotFrac: 0.5, On: 8, Off: 8, Hold: 1}
	wl.Register(fs, "workload", "load", "hot", "hotfrac", "on", "off", "hold")
	var (
		genMode   = fs.Bool("gen", false, "generate a trace")
		mergeMode = fs.Bool("merge", false, "merge cluster span dumps (controller dump first, then node dumps) into one Chrome trace")
		mout      = fs.String("mout", "merged.trace.json", "merged Chrome trace output path for -merge")
		mcheck    = fs.Bool("check", false, "with -merge: verify containment and attribution invariants, non-zero exit on failure")
		exemplars = fs.String("exemplars", "", "render a grant exemplar JSONL dump (incident-bundle exemplars.jsonl) as a Chrome trace")
		xout      = fs.String("xout", "exemplars.trace.json", "Chrome trace output path for -exemplars")
		info      = fs.String("info", "", "inspect an existing trace file")
		decisions = fs.String("decisions", "", "replay a trace and dump scheduling decisions")
		dump      = fs.String("dump", "decisions.jsonl", "decision dump path for -decisions")
		format    = fs.String("format", "jsonl", "decision dump format: jsonl or chrome")
		laneCap   = fs.Int("cap", 1<<16, "retained decision events per port lane (count)")
		disturb   = fs.Bool("disturb", false, "disturb mode for -decisions replay")
		out       = fs.String("o", "trace.bin", "output path for -gen")
		slots     = fs.Int("slots", 10000, "slots to record")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(err error) int {
		fmt.Fprintf(stderr, "wdmtrace: %v\n", err)
		return 1
	}

	switch {
	case *mergeMode:
		if err := runMerge(stdout, fs.Args(), *mout, *mcheck); err != nil {
			return fail(err)
		}
		return 0
	case *exemplars != "":
		if err := runExemplars(stdout, *exemplars, *xout); err != nil {
			return fail(err)
		}
		return 0
	case *decisions != "":
		if err := runDecisions(stdout, *decisions, *dump, *format, sh, *laneCap, *disturb); err != nil {
			return fail(err)
		}
		return 0
	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr, err := traffic.ReadTrace(f)
		if err != nil {
			return fail(err)
		}
		pk := tr.NumPackets()
		fmt.Fprintf(stdout, "trace          %s\n", *info)
		fmt.Fprintf(stdout, "shape          N=%d, k=%d, %d slots\n", tr.N, tr.K, len(tr.Slots))
		fmt.Fprintf(stdout, "packets        %d total\n", pk)
		if len(tr.Slots) > 0 {
			fmt.Fprintf(stdout, "offered load   %.4f per channel-slot\n",
				float64(pk)/(float64(tr.N)*float64(tr.K)*float64(len(tr.Slots))))
		}
		return 0
	case *genMode:
		cfg := traffic.Config{N: sh.N, K: sh.K, Seed: sh.Seed}
		gen, err := wl.Generator(cfg)
		if err != nil {
			return fail(err)
		}
		tr, err := traffic.Record(gen, cfg, *slots)
		if err != nil {
			return fail(err)
		}
		if err := cli.WriteFile(*out, tr.Write); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %d packets over %d slots to %s\n", tr.NumPackets(), *slots, *out)
		return 0
	default:
		fmt.Fprintln(stderr, "wdmtrace: need -gen, -info, -decisions, -merge or -exemplars (see -h)")
		return 2
	}
}

// runDecisions replays a recorded trace through a switch with the decision
// tracer attached and writes every retained scheduling event to dumpPath.
func runDecisions(stdout io.Writer, tracePath, dumpPath, format string, sh cli.Switch, laneCap int, disturb bool) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	tr, err := traffic.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}

	// The switch takes its shape from the trace, not from -n/-k, and its
	// seed stays 0 so that a replayed decision dump does not move with -seed.
	conv, err := wavelength.NewNamed(sh.Kind, tr.K, sh.D)
	if err != nil {
		return err
	}
	tracer := telemetry.NewDecisionTracer(tr.N, laneCap)
	sw, err := interconnect.New(interconnect.Config{
		N: tr.N, Conv: conv,
		Scheduler: sh.Scheduler, Selector: sh.Selector,
		Distributed: sh.Distributed, Disturb: disturb,
		Trace: tracer,
	})
	if err != nil {
		return err
	}
	st, err := sw.Run(tr.Replay(), len(tr.Slots))
	if err != nil {
		return err
	}

	write := tracer.WriteJSONL
	switch format {
	case "jsonl":
	case "chrome":
		write = tracer.WriteChromeTrace
	default:
		return fmt.Errorf("unknown format %q (want jsonl or chrome)", format)
	}
	if err := cli.WriteFile(dumpPath, write); err != nil {
		return err
	}

	// The tracer's exactness guarantee: when nothing was dropped, grant
	// events agree with the run statistics one-for-one.
	var grants int64
	for _, e := range tracer.Events() {
		if e.Kind == telemetry.EvGrant {
			grants++
		}
	}
	engine := "sequential"
	if sh.Distributed {
		engine = "distributed"
	}
	fmt.Fprintf(stdout, "replayed       %d slots through %s (%s engine)\n",
		st.Slots, sh.Scheduler, engine)
	fmt.Fprintf(stdout, "decisions      %d events (%d dropped by ring wraparound) -> %s\n",
		tracer.Emitted(), tracer.Dropped(), dumpPath)
	fmt.Fprintf(stdout, "grants         %d events, stats granted %d\n", grants, st.Granted.Value())
	if tracer.Dropped() == 0 && grants != st.Granted.Value() {
		return fmt.Errorf("grant events (%d) disagree with stats (%d)", grants, st.Granted.Value())
	}
	return nil
}
