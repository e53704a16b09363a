package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wdmsched/internal/cluster"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// traceClusterRun drives a real two-node loopback cluster with tracing on
// and writes the three span dumps -merge consumes: the controller's and
// one per node.
func traceClusterRun(t *testing.T, dir string) (string, []string) {
	t.Helper()
	const n, k, slots = 4, 8, 300

	var addrs []string
	var nodeDumps []func(path string) error
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := cluster.NewNode(cluster.NodeConfig{
			Spans: telemetry.NewSpanTracer(1, 1<<12),
		})
		go node.Serve(ln)
		t.Cleanup(func() { node.Close() })
		addrs = append(addrs, ln.Addr().String())
		nodeDumps = append(nodeDumps, func(path string) error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := node.WriteSpans(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}

	conv, err := wavelength.NewSymmetric(wavelength.Circular, k, 3)
	if err != nil {
		t.Fatal(err)
	}
	spans := telemetry.NewSpanTracer(1, 1<<12)
	ctrl, err := cluster.NewController(cluster.ControllerConfig{
		Addrs: addrs, N: n, Conv: conv, Scheduler: "exact",
		Seed: 7, DialTimeout: 10 * time.Second, Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: 7}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := interconnect.New(interconnect.Config{
		N: n, Conv: conv, Scheduler: "exact", Seed: 7, Remote: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Run(gen, slots); err != nil {
		t.Fatal(err)
	}

	ctrlPath := filepath.Join(dir, "ctrl.spans")
	f, err := os.Create(ctrlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.WriteSpans(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var nodePaths []string
	for i, dump := range nodeDumps {
		p := filepath.Join(dir, "node"+string(rune('0'+i))+".spans")
		if err := dump(p); err != nil {
			t.Fatal(err)
		}
		nodePaths = append(nodePaths, p)
	}
	return ctrlPath, nodePaths
}

// TestMergeEndToEnd: a traced cluster run's three dumps must merge into a
// valid Chrome trace whose node spans sit inside the controller's RPC
// windows on the corrected timeline, with the attribution table summing
// to slot latency — the full acceptance pipeline, -check included.
func TestMergeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ctrlPath, nodePaths := traceClusterRun(t, dir)
	outPath := filepath.Join(dir, "merged.trace.json")

	var out, errb bytes.Buffer
	args := []string{"-merge", "-mout", outPath, "-check", ctrlPath}
	// Node dumps in reverse order: -merge must map them to shards by span
	// ID, not by argument position.
	for i := len(nodePaths) - 1; i >= 0; i-- {
		args = append(args, nodePaths[i])
	}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	for _, want := range []string{"merged", "flow arrows", "clock sync", "stage", "containment", "attribution", "check          ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	for _, stage := range []string{"slot", "prepare", "encode", "rpc", "decode", "schedule", "node-encode", "commit"} {
		if !strings.Contains(out.String(), stage) {
			t.Errorf("attribution table missing stage %q:\n%s", stage, out.String())
		}
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("merged trace is not JSON: %v", err)
	}
	procs := map[int]string{}
	var spanEvents, flowStarts, flowEnds int
	nodePids := map[int]bool{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				procs[e.Pid], _ = e.Args["name"].(string)
			}
		case "X":
			spanEvents++
			if e.Pid > 0 {
				nodePids[e.Pid] = true
			}
		case "s":
			flowStarts++
		case "f":
			flowEnds++
		}
	}
	if procs[0] != "controller" {
		t.Errorf("pid 0 named %q, want controller", procs[0])
	}
	for _, pid := range []int{1, 2} {
		if !strings.HasPrefix(procs[pid], "node ") {
			t.Errorf("pid %d named %q, want a node row", pid, procs[pid])
		}
		if !nodePids[pid] {
			t.Errorf("no spans on node process %d", pid)
		}
	}
	if spanEvents == 0 || flowStarts == 0 || flowEnds == 0 {
		t.Fatalf("degenerate trace: %d spans, %d flow starts, %d flow ends", spanEvents, flowStarts, flowEnds)
	}
}

func writeDump(t *testing.T, dir, name, metaLine string, spanLines ...string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	content := metaLine + "\n" + strings.Join(spanLines, "\n")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMergeRejectsBadInputs covers the validation paths: argument count,
// swapped roles, mismatched run IDs, dumps with no trace IDs, and files
// that are not span dumps at all.
func TestMergeRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	ctrl := writeDump(t, dir, "ctrl.spans",
		`{"meta":{"role":"controller","run_id":77,"links":[{"node":"a:1","shard":0,"offset_ns":0,"rtt_ns":1000}]}}`,
		`{"slot":1,"lane":1,"stage":"rpc","port":-1,"id":1048576,"start":100,"dur":50}`)
	node := writeDump(t, dir, "node.spans",
		`{"meta":{"role":"node","run_id":77}}`,
		`{"slot":1,"lane":0,"stage":"decode","port":-1,"id":1048576,"start":110,"dur":10}`)

	// "duplicate" hands -merge a second dump whose span id 2097152 (2<<20)
	// also names shard 0: two files claiming one link must be rejected.
	cases := map[string][]string{
		"too few args": {ctrl},
		"node first":   {node, ctrl},
		"ctrl as node": {ctrl, ctrl},
		"run mismatch": {ctrl, writeDump(t, dir, "other.spans", `{"meta":{"role":"node","run_id":99}}`, `{"slot":1,"lane":0,"stage":"decode","port":-1,"id":1048576,"start":110,"dur":10}`)},
		"no trace ids": {ctrl, writeDump(t, dir, "blank.spans", `{"meta":{"role":"node","run_id":77}}`, `{"slot":1,"lane":0,"stage":"decode","port":-1,"id":0,"start":110,"dur":10}`)},
		"bad shard":    {ctrl, writeDump(t, dir, "shard.spans", `{"meta":{"role":"node","run_id":77}}`, `{"slot":1,"lane":0,"stage":"decode","port":-1,"id":5,"start":110,"dur":10}`)},
		"not a dump":   {writeDump(t, dir, "junk.spans", "junk"), node},
		"missing file": {filepath.Join(dir, "absent.spans"), node},
		"duplicate":    {ctrl, node, writeDump(t, dir, "dup.spans", `{"meta":{"role":"node","run_id":77}}`, `{"slot":2,"lane":0,"stage":"decode","port":-1,"id":2097152,"start":200,"dur":10}`)},
	}
	for name, paths := range cases {
		var out, errb bytes.Buffer
		args := append([]string{"-merge", "-mout", filepath.Join(dir, "out.json")}, paths...)
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr: %s)", name, code, errb.String())
		}
	}

	// A well-formed minimal pair must succeed without -check.
	var out, errb bytes.Buffer
	code := run([]string{"-merge", "-mout", filepath.Join(dir, "ok.json"), ctrl, node}, &out, &errb)
	if code != 0 {
		t.Fatalf("minimal merge failed: %s", errb.String())
	}
}
