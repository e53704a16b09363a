// Command wdmtrace records synthetic workload traces to disk and inspects
// them, so scheduler variants can be compared on byte-identical arrivals.
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

	wdm "wdmsched"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command; extracted from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
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
		laneCap   = fs.Int("cap", 1<<16, "retained decision events per port lane")
		scheduler = fs.String("scheduler", "exact", wdm.SchedulerUsage("scheduler for -decisions replay"))
		selector  = fs.String("selector", "round-robin", "tie-break selector for -decisions replay")
		kindFlag  = fs.String("kind", "circular", "conversion kind for -decisions replay")
		d         = fs.Int("d", 3, "conversion degree for -decisions replay")
		distrib   = fs.Bool("distributed", false, "worker-pool engine for -decisions replay")
		disturb   = fs.Bool("disturb", false, "disturb mode for -decisions replay")
		out       = fs.String("o", "trace.bin", "output path for -gen")
		n         = fs.Int("n", 8, "fibers per side")
		k         = fs.Int("k", 16, "wavelengths per fiber")
		workload  = fs.String("workload", "bernoulli", "workload: bernoulli, hotspot, bursty")
		load      = fs.Float64("load", 0.8, "offered load (bernoulli/hotspot)")
		hot       = fs.Int("hot", 0, "hot output fiber (hotspot)")
		hotFrac   = fs.Float64("hotfrac", 0.5, "hotspot fraction")
		meanOn    = fs.Float64("on", 8, "mean burst length (bursty)")
		meanOff   = fs.Float64("off", 8, "mean idle length (bursty)")
		hold      = fs.Float64("hold", 1, "mean holding time in slots")
		slots     = fs.Int("slots", 10000, "slots to record")
		seed      = fs.Uint64("seed", 1, "random seed")
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
		if err := runDecisions(stdout, *decisions, *dump, *format, *kindFlag,
			*scheduler, *selector, *d, *laneCap, *distrib, *disturb); err != nil {
			return fail(err)
		}
		return 0
	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr, err := wdm.ReadTrace(f)
		if err != nil {
			return fail(err)
		}
		if err := tr.Validate(); err != nil {
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
		cfg := wdm.TrafficConfig{N: *n, K: *k, Seed: *seed, Hold: wdm.HoldingTime{Mean: *hold}}
		var gen wdm.Generator
		var err error
		switch *workload {
		case "bernoulli":
			gen, err = wdm.NewBernoulliTraffic(cfg, *load)
		case "hotspot":
			gen, err = wdm.NewHotspotTraffic(cfg, *load, *hot, *hotFrac)
		case "bursty":
			gen, err = wdm.NewBurstyTraffic(cfg, *meanOn, *meanOff)
		default:
			err = fmt.Errorf("unknown workload %q", *workload)
		}
		if err != nil {
			return fail(err)
		}
		tr, err := wdm.RecordTrace(gen, cfg, *slots)
		if err != nil {
			return fail(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		if err := tr.Write(f); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
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
func runDecisions(stdout io.Writer, tracePath, dumpPath, format, kindFlag,
	scheduler, selector string, d, laneCap int, distributed, disturb bool) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	tr, err := wdm.ReadTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := tr.Validate(); err != nil {
		return err
	}

	kind, err := wdm.ParseKind(kindFlag)
	if err != nil {
		return err
	}
	var conv wdm.Conversion
	if kind == wdm.Full {
		conv, err = wdm.NewConversion(wdm.Full, tr.K, 0, 0)
	} else {
		conv, err = wdm.NewSymmetricConversion(kind, tr.K, d)
	}
	if err != nil {
		return err
	}

	tracer := wdm.NewDecisionTracer(tr.N, laneCap)
	sw, err := wdm.NewSwitch(wdm.SwitchConfig{
		N: tr.N, Conv: conv,
		Scheduler: scheduler, Selector: selector,
		Distributed: distributed, Disturb: disturb,
		Trace: tracer,
	})
	if err != nil {
		return err
	}
	st, err := sw.Run(tr.Replay(), len(tr.Slots))
	if err != nil {
		return err
	}

	df, err := os.Create(dumpPath)
	if err != nil {
		return err
	}
	switch format {
	case "jsonl":
		err = tracer.WriteJSONL(df)
	case "chrome":
		err = tracer.WriteChromeTrace(df)
	default:
		err = fmt.Errorf("unknown format %q (want jsonl or chrome)", format)
	}
	if err != nil {
		df.Close()
		return err
	}
	if err := df.Close(); err != nil {
		return err
	}

	// The tracer's exactness guarantee: when nothing was dropped, grant
	// events agree with the run statistics one-for-one.
	var grants int64
	for _, e := range tracer.Events() {
		if e.Kind == wdm.EventGrant {
			grants++
		}
	}
	fmt.Fprintf(stdout, "replayed       %d slots through %s (%s engine)\n",
		st.Slots, scheduler, engineName(distributed))
	fmt.Fprintf(stdout, "decisions      %d events (%d dropped by ring wraparound) -> %s\n",
		tracer.Emitted(), tracer.Dropped(), dumpPath)
	fmt.Fprintf(stdout, "grants         %d events, stats granted %d\n", grants, st.Granted.Value())
	if tracer.Dropped() == 0 && grants != st.Granted.Value() {
		return fmt.Errorf("grant events (%d) disagree with stats (%d)", grants, st.Granted.Value())
	}
	return nil
}

func engineName(distributed bool) string {
	if distributed {
		return "distributed"
	}
	return "sequential"
}
