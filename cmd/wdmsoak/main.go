// Command wdmsoak is the long-run chaos harness: it composes any workload
// generator with Markov channel/converter faults and cluster transport
// faults, drives every requested engine (sequential, distributed, cluster)
// in lockstep on identical arrivals, and continuously checks the
// invariants the engines guarantee:
//
//   - conservation — offered = granted + input-blocked + output-dropped,
//     and the per-input / per-channel partitions sum to their totals;
//   - ledger — the grants observed slot by slot through LastGrants
//     reconcile exactly with the run statistics;
//   - equivalence — all engines produce identical snapshots at every
//     resync point (the cluster engine remains bit-identical even while
//     transport faults force retries and local fallback);
//   - span containment — after a traced cluster run, node spans sit inside
//     their clock-corrected RPC windows and the stage attribution explains
//     slot latency (the wdmtrace -check logic, shared via
//     internal/spancheck).
//
// The run is bounded by a slot budget (-slots), a wall-clock budget
// (-time), or both; on the first violation wdmsoak writes a JSON incident
// report to -report, dumps a self-contained flight-recorder bundle to
// -bundle (replayable with wdmreplay), and exits 1. A clean soak exits 0.
// The first output line is the full effective config as JSON, so any run
// is reproducible from its log alone. SIGQUIT dumps a flight-recorder
// bundle at the next slot boundary without stopping the run.
//
// Usage:
//
//	wdmsoak -slots 1000000 -workload heavytail -engines sequential,distributed,cluster
//	wdmsoak -time 30m -workload selfsimilar -diurnal 100000 -spandir artifacts/
//	wdmsoak -slots 200000 -workload bulk -bulkunits 100000
//	wdmsoak -slots 100000 -workload trace -trace big.trace.bin
//
// The trace workload replays a file recorded by wdmtrace -gen; -n and -k
// must match the shape it was recorded with.
//
// -chaosbug deliberately corrupts the harness itself ("ledger" drops
// grants from the reconciliation ledger, "equivalence" perturbs one
// engine's arrival seed) to prove the checker catches real accounting
// bugs; it exists for the harness's own tests and CI smoke only.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wdmsched/internal/cli"
	"wdmsched/internal/soak"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmsoak", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sh := cli.Switch{N: 8, K: 16, Kind: "circular", D: 3, Scheduler: "exact", Seed: 1}
	sh.Register(fs, "n", "k", "kind", "d", "scheduler", "seed")
	wl := cli.Workload{Load: 0.7, Hold: 1}
	wl.Register(fs, "load", "hold")
	var (
		enginesFlag = fs.String("engines", "sequential,distributed,cluster", "comma-separated engines to run in lockstep")
		workload    = fs.String("workload", "heavytail", "workload: "+strings.Join(soak.Workloads, ", "))
		tracePath   = fs.String("trace", "", "trace file to replay, as written by wdmtrace -gen (-workload trace)")
		alpha       = fs.Float64("alpha", 1.5, "Pareto tail index (heavytail/selfsimilar)")
		zipf        = fs.Float64("zipf", 0.8, "destination zipf exponent (heavytail)")
		users       = fs.Int("users", 0, "on/off user count per fiber (selfsimilar; 0 = 12k)")
		diurnal     = fs.Int("diurnal", 0, "diurnal load-curve period in slots (0 = off)")
		floor       = fs.Float64("floor", 0.25, "diurnal trough as a fraction of peak load")
		bulkUnits   = fs.Int("bulkunits", 50000, "total transfer units (-workload bulk)")
		slots       = fs.Int64("slots", 0, "slot budget (0 = unbounded; need -slots or -time)")
		timeBudget  = fs.Duration("time", 0, "wall-clock run budget as a duration, e.g. 2m (0 = unbounded)")
		resync      = fs.Int64("resync", 1000, "slots between invariant checks")
		nodes       = fs.Int("nodes", 2, "in-process worker node count for the cluster engine")
		convFail    = fs.Float64("convfail", 0.001, "P[converter up->down] per slot")
		convRepair  = fs.Float64("convrepair", 0.05, "P[converter down->up] per slot")
		dark        = fs.Float64("dark", 0.0005, "P[channel up->dark] per slot")
		restore     = fs.Float64("restore", 0.05, "P[channel dark->up] per slot")
		portDown    = fs.Float64("portdown", 0.0002, "P[output port up->down] per slot")
		portUp      = fs.Float64("portup", 0.02, "P[output port down->up] per slot")
		tDrop       = fs.Float64("tdrop", 0.002, "P[cluster frame dropped]")
		tDup        = fs.Float64("tdup", 0.002, "P[cluster frame duplicated]")
		tDelay      = fs.Float64("tdelay", 0.002, "P[cluster frame delayed]")
		rpcTimeout  = fs.Duration("rpctimeout", 25*time.Millisecond, "cluster schedule RPC deadline as a duration (each dropped frame stalls this long)")
		report      = fs.String("report", "wdmsoak.report.json", "incident report path (written on violation)")
		bundle      = fs.String("bundle", "wdmsoak.incident.tgz", "flight-recorder bundle path (written on violation/panic/SIGQUIT; empty disables)")
		spandir     = fs.String("spandir", "", "directory for cluster span dumps (always written when set)")
		progress    = fs.Int64("progress", 0, "slots between progress lines (0 = 25 resync intervals)")
		chaosBug    = fs.String("chaosbug", "", "deliberately break the harness: ledger or equivalence (testing the checker)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "wdmsoak: "+format+"\n", a...)
		return 2
	}
	cfg := soak.Config{
		Workload: *workload, N: sh.N, K: sh.K, Kind: sh.Kind, D: sh.D, Scheduler: sh.Scheduler,
		Load: wl.Load, Alpha: *alpha, Zipf: *zipf, Users: *users,
		Diurnal: *diurnal, Floor: *floor, Hold: wl.Hold, BulkUnits: *bulkUnits, Trace: *tracePath,
		Slots: *slots, Time: *timeBudget, Resync: *resync, Seed: sh.Seed, Nodes: *nodes,
		ConvFail: *convFail, ConvRepair: *convRepair, Dark: *dark, Restore: *restore,
		PortDown: *portDown, PortUp: *portUp,
		TDrop: *tDrop, TDup: *tDup, TDelay: *tDelay, RPCTimeout: *rpcTimeout,
		ChaosBug: *chaosBug,
	}
	for _, e := range strings.Split(*enginesFlag, ",") {
		if e = strings.TrimSpace(e); e != "" {
			cfg.Engines = append(cfg.Engines, e)
		}
	}

	h, err := soak.New(cfg, soak.Options{
		Stdout: stdout, Stderr: stderr,
		Report: *report, BundlePath: *bundle, SpanDir: *spandir, Progress: *progress,
	})
	if err != nil {
		return usage("%v", err)
	}
	defer h.Close()

	// SIGQUIT dumps a flight-recorder bundle at the next slot boundary;
	// the run keeps going — the black-box tape is readable without
	// sacrificing the soak.
	defer cli.OnQuit(h.RequestDump)()

	return h.Run()
}
