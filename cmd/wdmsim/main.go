// Command wdmsim simulates an N×N wavelength convertible WDM optical
// interconnect for a configurable workload and prints the run statistics.
//
// Example — 16×16 switch, 32 wavelengths, circular conversion d=3, exact
// scheduling at load 0.9 with multi-slot bursts:
//
//	wdmsim -n 16 -k 32 -kind circular -d 3 -load 0.9 -hold 4 -slots 20000
//
// The -async flag switches to the paper's asynchronous wavelength-routing
// mode (one output fiber, Poisson arrivals, FCFS assignment):
//
//	wdmsim -async -k 16 -d 3 -erlangs 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"wdmsched/internal/analysis"
	"wdmsched/internal/async"
	"wdmsched/internal/cli"
	"wdmsched/internal/cluster"
	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command; extracted from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sh := cli.Switch{N: 8, K: 16, Kind: "circular", D: 3, Scheduler: "exact", Selector: "round-robin", Seed: 1}
	sh.Register(fs, "n", "k", "kind", "d", "scheduler", "selector", "seed", "distributed", "nodes")
	wl := cli.Workload{Name: "bernoulli", Load: 0.8, HotFrac: 0.5, On: 8, Off: 8, Hold: 1}
	wl.Register(fs, "workload", "load", "hot", "hotfrac", "on", "off", "hold")
	var (
		holdDet    = fs.Bool("holddet", false, "deterministic holding time instead of geometric")
		disturb    = fs.Bool("disturb", false, "disturb mode: reschedule held connections (Section V)")
		validate   = fs.Bool("validate", false, "route every slot through the datapath model")
		slots      = fs.Int("slots", 10000, "slots to simulate")
		classes    = fs.Int("classes", 1, "strict-priority QoS classes (count; >1 marks packets uniformly high=20%/rest split)")
		convFail   = fs.Float64("convfail", 0, "per-slot converter failure probability (fault injection)")
		convRepair = fs.Float64("convrepair", 0.1, "per-slot converter repair probability")
		darkFail   = fs.Float64("darkfail", 0, "per-slot channel dark probability (fault injection)")
		darkRepair = fs.Float64("darkrepair", 0.1, "per-slot channel restore probability")
		asyncMode  = fs.Bool("async", false, "asynchronous wavelength-routing mode (paper §I)")
		erlangs    = fs.Float64("erlangs", 10, "offered Erlangs λ/µ in -async mode")
		arrivals   = fs.Int("arrivals", 200000, "connection arrivals to simulate in -async mode (count)")
		clusterTo  = fs.String("cluster", "", "comma-separated wdmnode addresses; schedule over the networked cluster runtime")
		netDrop    = fs.Float64("netdrop", 0, "injected frame drop probability on the cluster transport")
		netDup     = fs.Float64("netdup", 0, "injected frame duplication probability on the cluster transport")
		netDelay   = fs.Float64("netdelay", 0, "injected frame delay probability on the cluster transport")
		rpcTimeout = fs.Duration("rpctimeout", 0, "cluster schedule RPC deadline as a duration (0 = use the runtime's 500ms)")
		spanDump   = fs.String("spandump", "", "write the controller-side span dump (trace context + JSONL spans) to this file after a cluster run; merge with node /spans dumps via wdmtrace -merge")
		clusterOut = fs.String("clusterstats", "", "write cluster runtime statistics as JSON to this file (kept separate from -json so engine outputs stay byte-comparable)")
		listen     = fs.String("listen", "", "serve live telemetry on this address (/metrics, /snapshot, /debug/pprof)")
		bundlePath = fs.String("bundle", "wdmsim.incident.tgz", "flight-recorder bundle path (dumped on SIGQUIT, panic or engine error; empty disables)")
		quiet      = fs.Bool("quiet", false, "suppress the statistics table")
		jsonOut    = fs.Bool("json", false, "print statistics as JSON instead of the table")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	n, k := sh.N, sh.K

	fail := func(err error) int {
		fmt.Fprintf(stderr, "wdmsim: %v\n", err)
		return 1
	}
	if *asyncMode && (*jsonOut || *listen != "" || *clusterTo != "" || sh.Nodes > 0) {
		return fail(fmt.Errorf("-json, -listen and -cluster/-nodes are not supported in -async mode"))
	}
	if *clusterTo != "" && sh.Nodes > 0 {
		return fail(fmt.Errorf("-cluster and -nodes are mutually exclusive"))
	}
	if (*spanDump != "" || *clusterOut != "") && *clusterTo == "" && sh.Nodes == 0 {
		return fail(fmt.Errorf("-spandump and -clusterstats require a cluster run (-cluster or -nodes)"))
	}

	conv, err := sh.Validate()
	if err != nil {
		return fail(err)
	}

	if *asyncMode {
		if err := runAsync(stdout, conv, *erlangs, *arrivals, sh.Seed); err != nil {
			return fail(err)
		}
		return 0
	}

	gen, err := wl.Generator(traffic.Config{
		N: n, K: k, Seed: sh.Seed,
		Hold: traffic.HoldingTime{Deterministic: *holdDet},
	})
	if err != nil {
		return fail(err)
	}
	if *classes > 1 {
		// 20% to the highest class, the rest split evenly.
		probs := make([]float64, *classes)
		probs[0] = 0.2
		for c := 1; c < *classes; c++ {
			probs[c] = 0.8 / float64(*classes-1)
		}
		gen, err = traffic.WithPriorities(gen, probs, sh.Seed+1)
		if err != nil {
			return fail(err)
		}
	}

	var faults fault.Injector
	if *convFail != 0 || *darkFail != 0 {
		faults, err = fault.NewMarkov(fault.MarkovConfig{
			N: n, K: k, Seed: sh.Seed + 2,
			ConverterFail: *convFail, ConverterRepair: *convRepair,
			ChannelDark: *darkFail, ChannelRestore: *darkRepair,
		})
		if err != nil {
			return fail(err)
		}
	}

	// Cluster mode: either connect to externally started wdmnode processes
	// (-cluster) or spawn loopback nodes in-process (-nodes) — handy for a
	// self-contained demonstration of the networked runtime.
	var ctrl *cluster.Controller
	var closers []func()
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	if *clusterTo != "" || sh.Nodes > 0 {
		addrs := strings.Split(*clusterTo, ",")
		if sh.Nodes > 0 {
			nodes, loopback, err := cluster.StartLoopback(sh.Nodes, nil)
			if err != nil {
				return fail(err)
			}
			for _, node := range nodes {
				closers = append(closers, func() { node.Close() })
			}
			addrs = loopback
		}
		var tf *fault.TransportFaults
		if *netDrop > 0 || *netDup > 0 || *netDelay > 0 {
			tf, err = fault.NewTransportFaults(fault.TransportConfig{
				Seed: sh.Seed + 3, Drop: *netDrop, Duplicate: *netDup, Delay: *netDelay,
			})
			if err != nil {
				return fail(err)
			}
		}
		var spans *telemetry.SpanTracer
		if *spanDump != "" {
			spans = telemetry.NewSpanTracer(1, 1<<14)
		}
		ctrl, err = cluster.NewController(cluster.ControllerConfig{
			Addrs: addrs, N: n, Conv: conv, Scheduler: sh.Scheduler,
			RPCTimeout: *rpcTimeout, Faults: tf, Seed: sh.Seed + 4,
			DialTimeout: 10 * time.Second, Spans: spans,
		})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { ctrl.Close() })
	}

	var reg *telemetry.Registry
	if *listen != "" {
		reg = telemetry.NewRegistry()
		if ctrl != nil {
			ctrl.RegisterTelemetry(reg)
		}
	}
	// The always-on black box: bounded zero-alloc rings taping decisions,
	// counter snapshots and fault-mask transitions, dumped as a bundle on
	// SIGQUIT, a recovered panic, or an engine error.
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Ports: n})
	scfg := simConfig{
		N: n, K: k, Kind: sh.Kind, D: sh.D,
		Scheduler: sh.Scheduler, Selector: sh.Selector, Workload: wl.Name,
		Load: wl.Load, Hold: wl.Hold, Slots: *slots, Seed: sh.Seed,
		Disturb: *disturb, Distributed: sh.Distributed, Classes: *classes,
	}
	swCfg := sh.Config(conv)
	swCfg.Disturb, swCfg.ValidateFabric = *disturb, *validate
	swCfg.PriorityClasses = *classes
	swCfg.Faults, swCfg.Telemetry, swCfg.Recorder = faults, reg, rec
	if ctrl != nil {
		swCfg.Remote = ctrl
	}
	sw, err := interconnect.New(swCfg)
	if err != nil {
		return fail(err)
	}
	if reg != nil {
		srv, err := telemetry.NewServer(*listen, reg)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "telemetry: listening on http://%s\n", srv.Addr())
	}
	st, err := runRecorded(sw, gen, *slots, rec, *bundlePath, scfg, stderr)
	if err != nil {
		return fail(err)
	}
	if *spanDump != "" {
		if err := cli.WriteFile(*spanDump, ctrl.WriteSpans); err != nil {
			return fail(err)
		}
	}
	if *clusterOut != "" {
		if err := cli.WriteFile(*clusterOut, func(w io.Writer) error {
			return writeClusterJSON(w, st.Cluster)
		}); err != nil {
			return fail(err)
		}
	}

	if *jsonOut {
		if err := writeJSONStats(stdout, st, n, k); err != nil {
			return fail(err)
		}
		return 0
	}
	if *quiet {
		return 0
	}

	fmt.Fprintf(stdout, "interconnect   %dx%d, %v\n", n, n, conv)
	fmt.Fprintf(stdout, "scheduler      %s, selector %s, disturb=%v, distributed=%v\n",
		sh.Scheduler, sh.Selector, *disturb, sh.Distributed)
	fmt.Fprintf(stdout, "workload       %s, mean hold %.1f slots, %d slots simulated\n",
		wl.Name, wl.Hold, *slots)
	fmt.Fprintf(stdout, "offered        %d packets\n", st.Offered.Value())
	fmt.Fprintf(stdout, "granted        %d packets (acceptance %.4f)\n", st.Granted.Value(), st.AcceptanceRate())
	fmt.Fprintf(stdout, "dropped        %d output contention, %d input blocked\n",
		st.OutputDropped.Value(), st.InputBlocked.Value())
	if *disturb {
		fmt.Fprintf(stdout, "preempted      %d held connections\n", st.Preempted.Value())
	}
	if *classes > 1 {
		for c := 0; c < *classes; c++ {
			fmt.Fprintf(stdout, "class %d        loss %.6f (%d offered)\n",
				c, st.ClassLossRate(c), st.PerClassOffered[c])
		}
	}
	if st.Fault != nil {
		fmt.Fprintf(stdout, "faults         %.1f healthy channels mean (of %d), %.1f%% degraded slots\n",
			st.Fault.MeanHealthyChannels(), n*k, 100*st.Fault.DegradedFraction(st.Slots))
		fmt.Fprintf(stdout, "fault cost     %d grants lost, %d connections killed\n",
			st.Fault.LostGrants.Value(), st.Fault.KilledConnections.Value())
	}
	if st.Cluster != nil {
		c := st.Cluster
		fmt.Fprintf(stdout, "cluster        %d nodes, remote fraction %.4f (%d remote, %d fallback, %d empty)\n",
			c.Nodes, c.RemoteFraction(), c.RemoteItems.Value(), c.LocalFallbackItems.Value(), c.EmptyItems.Value())
		fmt.Fprintf(stdout, "cluster rpc    mean %v p99 %v; %d retries, %d deadline misses, %d reconnects\n",
			c.RPCLatency.Mean(), c.RPCLatency.Quantile(0.99), c.Retries.Value(), c.DeadlineMisses.Value(), c.Reconnects.Value())
		fmt.Fprintf(stdout, "cluster wire   %d bytes sent, %d received\n",
			c.BytesSent.Value(), c.BytesReceived.Value())
	}
	fmt.Fprintf(stdout, "loss rate      %.6f\n", st.LossRate())
	fmt.Fprintf(stdout, "throughput     %.4f granted packets per channel-slot\n", st.Throughput(n, k))
	fmt.Fprintf(stdout, "utilization    %.4f busy channel-slots fraction\n", st.Utilization(n, k))
	fmt.Fprintf(stdout, "fairness       %.4f Jain index over input fibers\n", st.FairnessJain())
	fmt.Fprintf(stdout, "match size     mean %.2f, p99 %d (per output fiber per slot)\n",
		st.MatchSizes.Mean(), st.MatchSizes.Quantile(0.99))
	return 0
}

// simConfig is the effective run shape embedded in wdmsim incident
// bundles so a dump is interpretable (and re-runnable) on its own.
type simConfig struct {
	N           int     `json:"n"`
	K           int     `json:"k"`
	Kind        string  `json:"kind"`
	D           int     `json:"d"`
	Scheduler   string  `json:"scheduler"`
	Selector    string  `json:"selector"`
	Workload    string  `json:"workload"`
	Load        float64 `json:"load"`
	Hold        float64 `json:"hold"`
	Slots       int     `json:"slots"`
	Seed        uint64  `json:"seed"`
	Disturb     bool    `json:"disturb"`
	Distributed bool    `json:"distributed"`
	Classes     int     `json:"classes"`
}

// runRecorded drives the slot loop explicitly (rather than Switch.Run) so
// SIGQUIT dump requests are honored at slot boundaries — where the
// recorder's single-writer rings are safe to read — and a panic escaping
// slot processing is recovered there with the black-box tape saved before
// the error propagates. SIGQUIT dumps do not stop the run.
func runRecorded(sw *interconnect.Switch, gen traffic.Generator, slots int, rec *telemetry.FlightRecorder, bundlePath string, cfg simConfig, stderr io.Writer) (st *interconnect.Stats, err error) {
	defer cli.OnQuit(rec.RequestDump)()

	slot := 0
	defer func() {
		if r := recover(); r != nil {
			dumpSimBundle(bundlePath, "panic", int64(slot), cfg, rec, stderr)
			st, err = nil, fmt.Errorf("panic at slot %d: %v", slot, r)
		}
	}()
	var buf []traffic.Packet
	for ; slot < slots; slot++ {
		buf = gen.Generate(slot, buf[:0])
		if err := sw.RunSlot(buf); err != nil {
			dumpSimBundle(bundlePath, "error", int64(slot), cfg, rec, stderr)
			return nil, err
		}
		if rec.TakeDumpRequest() {
			path := strings.TrimSuffix(bundlePath, ".tgz") + fmt.Sprintf("-sigquit-%d.tgz", slot)
			dumpSimBundle(path, "sigquit", int64(slot), cfg, rec, stderr)
		}
	}
	return sw.Finalize(), nil
}

// dumpSimBundle writes the recorder rings plus the run config as one
// incident bundle; failures are reported but never fail the run.
func dumpSimBundle(path, trigger string, slot int64, cfg simConfig, rec *telemetry.FlightRecorder, stderr io.Writer) {
	if path == "" {
		return
	}
	start := time.Now()
	w := telemetry.NewBundleWriter("wdmsim", trigger, slot)
	err := w.AddJSON("config.json", cfg)
	if err == nil {
		err = w.AddFunc("decisions.jsonl", rec.Decisions().WriteJSONL)
	}
	if err == nil {
		err = w.AddFunc("snapshots.jsonl", rec.WriteSnapshotsJSONL)
	}
	if err == nil {
		err = w.AddFunc("faults.jsonl", rec.WriteFaultsJSONL)
	}
	if err == nil {
		err = w.WriteFile(path)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wdmsim: dumping flight-recorder bundle: %v\n", err)
		return
	}
	rec.NoteDump(time.Since(start))
	fmt.Fprintf(stderr, "wdmsim: flight-recorder bundle: %s\n", path)
}

// writeJSONStats prints the run statistics as one indented JSON document,
// for scripting over wdmsim without scraping the human table.
func writeJSONStats(w io.Writer, st *interconnect.Stats, n, k int) error {
	type classStats struct {
		Offered int64   `json:"offered"`
		Granted int64   `json:"granted"`
		Loss    float64 `json:"loss_rate"`
	}
	type faultStats struct {
		MeanHealthyChannels float64 `json:"mean_healthy_channels"`
		DegradedFraction    float64 `json:"degraded_slot_fraction"`
		LostGrants          int64   `json:"lost_grants"`
		KilledConnections   int64   `json:"killed_connections"`
	}
	out := struct {
		Slots         int          `json:"slots"`
		Offered       int64        `json:"offered"`
		Granted       int64        `json:"granted"`
		OutputDropped int64        `json:"output_dropped"`
		InputBlocked  int64        `json:"input_blocked"`
		Preempted     int64        `json:"preempted"`
		Acceptance    float64      `json:"acceptance_rate"`
		LossRate      float64      `json:"loss_rate"`
		Throughput    float64      `json:"throughput"`
		Utilization   float64      `json:"utilization"`
		FairnessJain  float64      `json:"fairness_jain"`
		MatchMean     float64      `json:"match_size_mean"`
		MatchP99      int          `json:"match_size_p99"`
		Classes       []classStats `json:"classes,omitempty"`
		Fault         *faultStats  `json:"fault,omitempty"`
	}{
		Slots:         st.Slots,
		Offered:       st.Offered.Value(),
		Granted:       st.Granted.Value(),
		OutputDropped: st.OutputDropped.Value(),
		InputBlocked:  st.InputBlocked.Value(),
		Preempted:     st.Preempted.Value(),
		Acceptance:    st.AcceptanceRate(),
		LossRate:      st.LossRate(),
		Throughput:    st.Throughput(n, k),
		Utilization:   st.Utilization(n, k),
		FairnessJain:  st.FairnessJain(),
		MatchMean:     st.MatchSizes.Mean(),
		MatchP99:      st.MatchSizes.Quantile(0.99),
	}
	for c := range st.PerClassOffered {
		out.Classes = append(out.Classes, classStats{
			Offered: st.PerClassOffered[c],
			Granted: st.PerClassGranted[c],
			Loss:    st.ClassLossRate(c),
		})
	}
	if st.Fault != nil {
		out.Fault = &faultStats{
			MeanHealthyChannels: st.Fault.MeanHealthyChannels(),
			DegradedFraction:    st.Fault.DegradedFraction(st.Slots),
			LostGrants:          st.Fault.LostGrants.Value(),
			KilledConnections:   st.Fault.KilledConnections.Value(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// writeClusterJSON prints the cluster runtime statistics as one JSON
// document. This lives in its own file (-clusterstats) rather than inside
// -json: the smoke test byte-compares -json output across engines, and
// wire counters are engine-specific by construction.
func writeClusterJSON(w io.Writer, c *interconnect.ClusterStats) error {
	if c == nil {
		return fmt.Errorf("no cluster statistics: run did not schedule over the cluster")
	}
	type stage struct {
		Count  int64   `json:"count"`
		MeanNS int64   `json:"mean_ns"`
		SumSec float64 `json:"sum_seconds"`
	}
	mk := func(h *metrics.DurationHistogram) stage {
		return stage{Count: h.Count(), MeanNS: h.Mean().Nanoseconds(), SumSec: h.Sum().Seconds()}
	}
	out := struct {
		Nodes          int              `json:"nodes"`
		RemoteItems    int64            `json:"remote_items"`
		FallbackItems  int64            `json:"fallback_items"`
		EmptyItems     int64            `json:"empty_items"`
		FallbackSlots  int64            `json:"fallback_slots"`
		Retries        int64            `json:"retries"`
		DeadlineMisses int64            `json:"deadline_misses"`
		Reconnects     int64            `json:"reconnects"`
		BytesSent      int64            `json:"bytes_sent"`
		BytesReceived  int64            `json:"bytes_received"`
		FramesSent     int64            `json:"frames_sent"`
		FramesReceived int64            `json:"frames_received"`
		RPCMeanNS      int64            `json:"rpc_mean_ns"`
		RPCP99NS       int64            `json:"rpc_p99_ns"`
		Stages         map[string]stage `json:"stages"`
	}{
		Nodes:          c.Nodes,
		RemoteItems:    c.RemoteItems.Value(),
		FallbackItems:  c.LocalFallbackItems.Value(),
		EmptyItems:     c.EmptyItems.Value(),
		FallbackSlots:  c.FallbackSlots.Value(),
		Retries:        c.Retries.Value(),
		DeadlineMisses: c.DeadlineMisses.Value(),
		Reconnects:     c.Reconnects.Value(),
		BytesSent:      c.BytesSent.Value(),
		BytesReceived:  c.BytesReceived.Value(),
		FramesSent:     c.FramesSent.Value(),
		FramesReceived: c.FramesReceived.Value(),
		RPCMeanNS:      c.RPCLatency.Mean().Nanoseconds(),
		RPCP99NS:       c.RPCLatency.Quantile(0.99).Nanoseconds(),
		Stages: map[string]stage{
			"prepare":       mk(c.PrepareTime),
			"encode":        mk(c.EncodeTime),
			"node-decode":   mk(c.NodeDecodeTime),
			"node-schedule": mk(c.NodeScheduleTime),
			"node-encode":   mk(c.NodeEncodeTime),
			"commit":        mk(c.CommitTime),
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// runAsync simulates the asynchronous (wavelength routing) mode at one
// output fiber and prints blocking statistics with the Erlang-B reference
// for the two conversion extremes.
func runAsync(stdout io.Writer, conv wavelength.Conversion, erlangs float64, arrivals int, seed uint64) error {
	st, err := async.Run(async.Config{
		Conv: conv, ArrivalRate: erlangs, MeanHold: 1,
		Policy: async.FirstFit, Seed: seed,
	}, arrivals)
	if err != nil {
		return err
	}
	k := conv.K()
	e1, err := analysis.ErlangB(1, erlangs/float64(k))
	if err != nil {
		return err
	}
	ek, err := analysis.ErlangB(k, erlangs)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "asynchronous wavelength routing, one output fiber, %v\n", conv)
	fmt.Fprintf(stdout, "offered        %.1f Erlangs, %d arrivals, FCFS first-fit\n", erlangs, st.Offered)
	fmt.Fprintf(stdout, "blocked        %d connections\n", st.Blocked)
	fmt.Fprintf(stdout, "blocking prob  %.6f\n", st.BlockingProbability())
	fmt.Fprintf(stdout, "carried        %.3f Erlangs over %.1f time units\n", st.CarriedErlangs, st.Duration)
	fmt.Fprintf(stdout, "Erlang-B refs  d=1: %.6f   full range: %.6f\n", e1, ek)
	return nil
}
