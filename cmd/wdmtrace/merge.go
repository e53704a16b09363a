package main

import (
	"fmt"
	"io"
	"time"

	"wdmsched/internal/cli"
	"wdmsched/internal/spancheck"
)

// runMerge joins one controller span dump with any number of node dumps
// into a single Chrome trace_event timeline (process 0 is the controller,
// process shard+1 each node, thread = tracer lane), with node clocks
// corrected by the controller's piggybacked-timestamp offset estimate and
// an RPC flow arrow from each controller RPC span to the node work it
// covered. It always prints the per-stage latency attribution table;
// -check additionally enforces the cross-process invariants. The heavy
// lifting lives in internal/spancheck, which wdmsoak shares.
func runMerge(stdout io.Writer, paths []string, outPath string, check bool) error {
	if len(paths) < 2 {
		return fmt.Errorf("-merge needs a controller dump and at least one node dump")
	}
	ctrl, err := spancheck.ReadDumpFile(paths[0])
	if err != nil {
		return err
	}
	nodes := make([]*spancheck.Dump, 0, len(paths)-1)
	for _, p := range paths[1:] {
		d, err := spancheck.ReadDumpFile(p)
		if err != nil {
			return err
		}
		nodes = append(nodes, d)
	}
	m, err := spancheck.Merge(ctrl, nodes)
	if err != nil {
		return err
	}

	var flows int
	if err := cli.WriteFile(outPath, func(w io.Writer) (err error) {
		flows, err = m.WriteChrome(w)
		return err
	}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "merged         %d controller + %d node spans from %d processes -> %s\n",
		len(ctrl.Spans), m.NodeSpanCount(), 1+len(m.Nodes), outPath)
	fmt.Fprintf(stdout, "flow arrows    %d RPC send->receive edges\n", flows)
	for _, l := range ctrl.Meta.Links {
		fmt.Fprintf(stdout, "clock sync     shard %d (%s): offset %v, rtt %v\n",
			l.Shard, l.Node, time.Duration(l.OffsetNS), time.Duration(l.RTTNS))
	}

	printAttribution(stdout, m)
	if check {
		rep, cerr := m.Check()
		if rep.Checked > 0 {
			fmt.Fprintf(stdout, "containment    %d/%d node spans outside their RPC window (%.2f%%)\n",
				rep.Violations, rep.Checked, 100*rep.ContainmentFrac())
		}
		if rep.AttributionChecked {
			fmt.Fprintf(stdout, "attribution    stages explain %.1f%% of slot time\n", 100*rep.AttributionRatio)
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintln(stdout, "check          ok")
	}
	return nil
}

// printAttribution renders the per-stage latency table over every process's
// spans: how the distributed slot pipeline's time divides among its stages,
// each stage's share expressed against total slot-span time.
func printAttribution(w io.Writer, m *spancheck.Merged) {
	rows := m.Attribution()
	var slotTotal int64
	for _, a := range rows {
		if a.Stage == "slot" {
			slotTotal = a.Total
		}
	}
	fmt.Fprintf(w, "\n%-14s %10s %14s %12s %8s\n", "stage", "spans", "total", "mean", "of slot")
	for _, a := range rows {
		share := "-"
		if slotTotal > 0 && a.Stage != "slot" {
			share = fmt.Sprintf("%.1f%%", 100*float64(a.Total)/float64(slotTotal))
		}
		fmt.Fprintf(w, "%-14s %10d %14v %12v %8s\n", a.Stage, a.Count,
			time.Duration(a.Total), time.Duration(a.Total/a.Count), share)
	}
}
