package cluster

import (
	"net"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// startNode launches a node on an ephemeral listener and returns its
// dial address ("host:port" or "unix:/path").
func startNode(t testing.TB, network string) (string, *Node) {
	t.Helper()
	var ln net.Listener
	var addr string
	var err error
	if network == "unix" {
		path := filepath.Join(t.TempDir(), "node.sock")
		ln, err = net.Listen("unix", path)
		addr = "unix:" + path
	} else {
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			addr = ln.Addr().String()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	// Every test node runs with its own telemetry registry and span tracer
	// attached, so the equivalence suites double as proof that node-side
	// observability never changes the results.
	node := NewNode(NodeConfig{
		Telemetry: telemetry.NewRegistry(),
		Spans:     telemetry.NewSpanTracer(1, 1<<12),
	})
	go node.Serve(ln)
	t.Cleanup(func() { node.Close() })
	return addr, node
}

// TestStartLoopback schedules a run over the -nodes loopback cluster and
// requires the sequential engine's statistics.
func TestStartLoopback(t *testing.T) {
	calls := 0
	nodes, addrs, err := StartLoopback(2, func() NodeConfig {
		calls++
		return NodeConfig{Telemetry: telemetry.NewRegistry()}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()
	if len(nodes) != 2 || len(addrs) != 2 || calls != 2 {
		t.Fatalf("StartLoopback(2) = %d nodes, %d addresses, %d configs built", len(nodes), len(addrs), calls)
	}
	cfg := interconnect.Config{N: 4, Conv: wavelength.MustNew(wavelength.Circular, 8, 1, 1), Scheduler: "exact", Seed: 3}
	want := clusterRun(t, cfg, nil, 0.8, 100)
	got := clusterRun(t, cfg, &ControllerConfig{Addrs: addrs, DialTimeout: 5 * time.Second}, 0.8, 100)
	requireStatsEqual(t, "loopback", want, got)
	if fb := got.Cluster.LocalFallbackItems.Value(); fb != 0 || got.Cluster.RemoteItems.Value() == 0 {
		t.Fatalf("loopback nodes scheduled %d items remotely, %d fell back", got.Cluster.RemoteItems.Value(), fb)
	}
}

// clusterRun simulates cfg once, optionally through a controller over the
// given node addresses.
func clusterRun(t *testing.T, cfg interconnect.Config, ccfg *ControllerConfig, load float64, slots int) *interconnect.Stats {
	t.Helper()
	if ccfg != nil {
		ccfg.N = cfg.N
		ccfg.Conv = cfg.Conv
		ccfg.Scheduler = cfg.Scheduler
		ctrl, err := NewController(*ccfg)
		if err != nil {
			t.Fatal(err)
		}
		defer ctrl.Close()
		cfg.Remote = ctrl
	}
	sw, err := interconnect.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := traffic.NewBernoulli(traffic.Config{
		N: cfg.N, K: cfg.Conv.K(), Seed: cfg.Seed + 1,
		Hold: traffic.HoldingTime{Mean: 2},
	}, load)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sw.Run(gen, slots)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// requireStatsEqual compares every traffic-level statistic of two runs —
// the keystone property: a cluster run must be byte-identical to the
// in-process engines, faults or not.
func requireStatsEqual(t *testing.T, label string, a, b *interconnect.Stats) {
	t.Helper()
	if a.Slots != b.Slots ||
		a.Offered.Value() != b.Offered.Value() ||
		a.Granted.Value() != b.Granted.Value() ||
		a.InputBlocked.Value() != b.InputBlocked.Value() ||
		a.OutputDropped.Value() != b.OutputDropped.Value() ||
		a.Preempted.Value() != b.Preempted.Value() ||
		a.BusyChannelSlots.Value() != b.BusyChannelSlots.Value() {
		t.Fatalf("%s: counters diverged: {o=%d g=%d ib=%d od=%d p=%d bs=%d} vs {o=%d g=%d ib=%d od=%d p=%d bs=%d}",
			label,
			a.Offered.Value(), a.Granted.Value(), a.InputBlocked.Value(),
			a.OutputDropped.Value(), a.Preempted.Value(), a.BusyChannelSlots.Value(),
			b.Offered.Value(), b.Granted.Value(), b.InputBlocked.Value(),
			b.OutputDropped.Value(), b.Preempted.Value(), b.BusyChannelSlots.Value())
	}
	for f := range a.PerInputGranted {
		if a.PerInputGranted[f] != b.PerInputGranted[f] {
			t.Fatalf("%s: per-input grants diverged at fiber %d: %d vs %d",
				label, f, a.PerInputGranted[f], b.PerInputGranted[f])
		}
	}
	for c := range a.PerChannelBusy {
		if a.PerChannelBusy[c] != b.PerChannelBusy[c] {
			t.Fatalf("%s: per-channel busy diverged at channel %d: %d vs %d",
				label, c, a.PerChannelBusy[c], b.PerChannelBusy[c])
		}
	}
	for v := 0; v <= len(a.PerChannelBusy); v++ {
		if a.MatchSizes.Bucket(v) != b.MatchSizes.Bucket(v) {
			t.Fatalf("%s: match-size histogram diverged at %d: %d vs %d",
				label, v, a.MatchSizes.Bucket(v), b.MatchSizes.Bucket(v))
		}
	}
	if (a.Fault != nil) != (b.Fault != nil) {
		t.Fatalf("%s: fault stats presence diverged", label)
	}
	if a.Fault != nil {
		if a.Fault.LostGrants.Value() != b.Fault.LostGrants.Value() ||
			a.Fault.KilledConnections.Value() != b.Fault.KilledConnections.Value() {
			t.Fatalf("%s: fault accounting diverged: lost %d vs %d, killed %d vs %d",
				label, a.Fault.LostGrants.Value(), b.Fault.LostGrants.Value(),
				a.Fault.KilledConnections.Value(), b.Fault.KilledConnections.Value())
		}
	}
}

// TestClusterEquivalence is the keystone gate: the networked runtime must
// reproduce the sequential engine's statistics exactly, across schedulers,
// disturb mode, transports, and channel-fault masking.
func TestClusterEquivalence(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 8, 1, 1)
	a1, _ := startNode(t, "tcp")
	a2, _ := startNode(t, "tcp")
	a3, _ := startNode(t, "unix")
	addrs := []string{a1, a2, a3}

	for _, sched := range []string{"exact", "fast", "shortest-edge"} {
		for _, disturb := range []bool{false, true} {
			base := interconnect.Config{
				N: 5, Conv: conv, Scheduler: sched, Seed: 7, Disturb: disturb,
			}
			label := sched
			if disturb {
				label += "+disturb"
			}
			want := clusterRun(t, base, nil, 0.9, 60)
			// Every cluster run is traced: results must stay byte-identical
			// with span recording on.
			spans := telemetry.NewSpanTracer(1, 1<<12)
			got := clusterRun(t, base, &ControllerConfig{Addrs: addrs, Seed: 7, Spans: spans}, 0.9, 60)
			requireStatsEqual(t, label, want, got)
			if got.Cluster == nil {
				t.Fatalf("%s: cluster stats missing", label)
			}
			if got.Cluster.LocalFallbackItems.Value() != 0 {
				t.Fatalf("%s: healthy cluster fell back %d times",
					label, got.Cluster.LocalFallbackItems.Value())
			}
			if got.Cluster.RemoteItems.Value() == 0 {
				t.Fatalf("%s: no remote scheduling happened", label)
			}
			if spans.Emitted() == 0 {
				t.Fatalf("%s: traced run emitted no spans", label)
			}
			seen := map[telemetry.SpanStage]bool{}
			for _, sp := range spans.Spans() {
				seen[sp.Stage] = true
			}
			for _, stage := range []telemetry.SpanStage{
				telemetry.StageSlot, telemetry.StagePrepare, telemetry.StageEncode,
				telemetry.StageRPC, telemetry.StageCommit,
			} {
				if !seen[stage] {
					t.Fatalf("%s: no %v span recorded", label, stage)
				}
			}
			if got.Cluster.PrepareTime.Count() == 0 || got.Cluster.NodeScheduleTime.Count() == 0 {
				t.Fatalf("%s: stage attribution histograms stayed empty", label)
			}
		}
	}
}

// warmClusterSwitch builds a switch scheduling through a controller over
// two loopback TCP nodes (N=8, k=16, d=3) and 64 pregenerated slots of
// Bernoulli 0.9 traffic with geometric holds of mean 2, and runs them four
// times so every buffer on both ends of the links has grown. It opens with
// one saturating slot per output port — every input channel bound for that
// port, one slot long — so the switch's per-port buffers are at their
// largest before the replay, not at whichever rare peak of it comes first.
func warmClusterSwitch(tb testing.TB) (*interconnect.Switch, *Controller, [][]traffic.Packet) {
	tb.Helper()
	const n, k = 8, 16
	conv := wavelength.MustNew(wavelength.Circular, k, 1, 1)
	a1, _ := startNode(tb, "tcp")
	a2, _ := startNode(tb, "tcp")
	ctrl, err := NewController(ControllerConfig{Addrs: []string{a1, a2}, N: n, Conv: conv, Scheduler: "exact", Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ctrl.Close() })
	sw, err := interconnect.New(interconnect.Config{N: n, Conv: conv, Seed: 3, Remote: ctrl})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sw.Finalize() })
	gen, err := traffic.NewBernoulli(traffic.Config{N: n, K: k, Seed: 4, Hold: traffic.HoldingTime{Mean: 2}}, 0.9)
	if err != nil {
		tb.Fatal(err)
	}
	for o := 0; o < n; o++ {
		var pkts []traffic.Packet
		for f := 0; f < n; f++ {
			for w := 0; w < k; w++ {
				pkts = append(pkts, traffic.Packet{InputFiber: f, Wavelength: w, DestFiber: o, Duration: 1})
			}
		}
		if err := sw.RunSlot(pkts); err != nil {
			tb.Fatal(err)
		}
	}
	slots := make([][]traffic.Packet, 64)
	for i := range slots {
		slots[i] = gen.Generate(i, nil)
	}
	for pass := 0; pass < 4; pass++ {
		for _, pkts := range slots {
			if err := sw.RunSlot(pkts); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sw, ctrl, slots
}

// TestClusterSlotZeroAlloc pins a steady-state cluster slot — the
// controller's batch over two loopback TCP nodes, the nodes' decode,
// schedule and encode, and the switch's admission and commit around it —
// at zero allocations, counted exactly across the whole process (the node
// goroutines included) over a window of 20 000 slots, so an allocation
// rarer than once per slot still fails it. The runtime allocates when it
// starts an OS thread, which it does now and then as the goroutines' mix
// of running and blocking shifts; a window in which it started one says
// nothing about the slot, so the next window is counted instead, up to
// three.
func TestClusterSlotZeroAlloc(t *testing.T) {
	sw, ctrl, slots := warmClusterSwitch(t)
	threads := pprof.Lookup("threadcreate")
	for window := 1; ; window++ {
		started := threads.Count()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < zeroAllocWindow; i++ {
			if err := sw.RunSlot(slots[i%len(slots)]); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		n := after.Mallocs - before.Mallocs
		if threads.Count() == started {
			if n != 0 {
				t.Errorf("%d steady-state cluster slots allocated %d times, want 0", zeroAllocWindow, n)
			}
			break
		}
		if window == 3 {
			t.Errorf("the runtime started an OS thread in each of %d windows (the last allocated %d times); no window counted", window, n)
			break
		}
	}
	if fb := ctrl.ClusterStats().LocalFallbackItems.Value(); fb != 0 {
		t.Errorf("healthy cluster fell back to local scheduling %d times", fb)
	}
}

// BenchmarkClusterSlot times one steady-state cluster slot over two
// loopback TCP nodes; 0 allocs/op.
func BenchmarkClusterSlot(b *testing.B) {
	sw, _, slots := warmClusterSwitch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sw.RunSlot(slots[i%len(slots)]); err != nil {
			b.Fatal(err)
		}
	}
}

// TestClusterEquivalenceWithChannelFaults exercises the masked scheduling
// path over the wire: channel faults degrade the request graph, the node
// computes both the masked decision and the healthy shadow matching, and
// the degraded-mode accounting must match the sequential engine's.
func TestClusterEquivalenceWithChannelFaults(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 8, 1, 1)
	a1, _ := startNode(t, "tcp")
	a2, _ := startNode(t, "tcp")
	newInjector := func() fault.Injector {
		inj, err := fault.NewMarkov(fault.MarkovConfig{
			N: 4, K: 8, Seed: 11,
			ConverterFail: 0.05, ConverterRepair: 0.2,
			ChannelDark: 0.03, ChannelRestore: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	base := interconnect.Config{N: 4, Conv: conv, Scheduler: "exact", Seed: 3}
	seq := base
	seq.Faults = newInjector()
	want := clusterRun(t, seq, nil, 0.9, 80)
	clu := base
	clu.Faults = newInjector()
	got := clusterRun(t, clu, &ControllerConfig{Addrs: []string{a1, a2}, Seed: 3}, 0.9, 80)
	requireStatsEqual(t, "markov-faults", want, got)
	if want.Fault == nil || want.Fault.LostGrants.Value() == 0 {
		t.Fatal("fault scenario injected nothing; test is vacuous")
	}
}

// TestClusterTransportFaults injects frame drops, duplicates and delays
// and asserts the two halves of the degradation contract: the run still
// completes with identical statistics, and the retry/fallback machinery
// visibly absorbed the faults.
func TestClusterTransportFaults(t *testing.T) {
	a1, _ := startNode(t, "tcp")
	a2, _ := startNode(t, "tcp")
	want := clusterRun(t, transportFaultConfig, nil, 0.9, 120)
	got, tf := transportFaultRun(t, a1, a2)
	requireStatsEqual(t, "transport-faults", want, got)
	if tf.Injected() == 0 {
		t.Fatal("no transport faults injected; test is vacuous")
	}
	c := got.Cluster
	if c.Retries.Value() == 0 && c.LocalFallbackItems.Value() == 0 {
		t.Fatalf("faults injected (%d) but neither retries nor fallbacks recorded", tf.Injected())
	}
	t.Logf("injected=%d retries=%d deadline_misses=%d fallback_items=%d reconnects=%d",
		tf.Injected(), c.Retries.Value(), c.DeadlineMisses.Value(),
		c.LocalFallbackItems.Value(), c.Reconnects.Value())
}

// coreResultCheck holds the decision a local scheduler makes for one
// request vector — what a node (or the fallback) must also produce, since
// both run the same pure function.
type coreResultCheck struct {
	want *core.Result
}

func newCoreResultCheck(t *testing.T, conv wavelength.Conversion, count []int) *coreResultCheck {
	t.Helper()
	sc, err := core.NewByName("exact", conv)
	if err != nil {
		t.Fatal(err)
	}
	want := core.NewResult(conv.K())
	sc.Schedule(count, make([]bool, conv.K()), want)
	return &coreResultCheck{want: want}
}

func (c *coreResultCheck) requireEqual(t *testing.T, slot int64, port int, got *core.Result) {
	t.Helper()
	if got.Size != c.want.Size || got.BreakChannel != c.want.BreakChannel {
		t.Fatalf("slot %d port %d: size/break %d/%d, want %d/%d",
			slot, port, got.Size, got.BreakChannel, c.want.Size, c.want.BreakChannel)
	}
	for b := range got.ByOutput {
		if got.ByOutput[b] != c.want.ByOutput[b] {
			t.Fatalf("slot %d port %d: channel %d got λ%d, want λ%d",
				slot, port, b, got.ByOutput[b], c.want.ByOutput[b])
		}
	}
}

// TestClusterNodeFailover kills a node mid-run and later revives it: the
// controller must degrade to local scheduling without stalling a slot,
// keep producing exactly the results the node would have, and re-adopt
// the node once it is back.
func TestClusterNodeFailover(t *testing.T) {
	a1, _ := startNode(t, "tcp")
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a2 := ln2.Addr().String()
	node2 := NewNode(NodeConfig{})
	go node2.Serve(ln2)

	b := newBatchRun(t, ControllerConfig{
		Addrs: []string{a1, a2}, Seed: 13, Retries: -1, ProbeSlots: 2, RPCTimeout: 200 * time.Millisecond,
	})
	ctrl := b.ctrl
	schedule := func(slot int64) { b.schedule(slot, 0, 1, 2, 3) }

	schedule(0)
	if got := ctrl.ClusterStats().LocalFallbackItems.Value(); got != 0 {
		t.Fatalf("healthy slot fell back %d items", got)
	}

	node2.Close() // ports 1 and 3 lose their node
	schedule(1)
	schedule(2)
	fb := ctrl.ClusterStats().LocalFallbackItems.Value()
	if fb == 0 {
		t.Fatal("node killed but no local fallback recorded")
	}

	// Revive the node on the same address and step past the probe window.
	ln2b, err := net.Listen("tcp", a2)
	if err != nil {
		t.Fatal(err)
	}
	node2b := NewNode(NodeConfig{})
	go node2b.Serve(ln2b)
	t.Cleanup(func() { node2b.Close() })

	for slot := int64(3); slot < 10; slot++ {
		schedule(slot)
	}
	if got := ctrl.ClusterStats().Reconnects.Value(); got == 0 {
		t.Fatal("revived node never re-adopted")
	}
	after := ctrl.ClusterStats().LocalFallbackItems.Value()
	schedule(10)
	if got := ctrl.ClusterStats().LocalFallbackItems.Value(); got != after {
		t.Fatalf("still falling back after reconnect: %d -> %d", after, got)
	}
}
