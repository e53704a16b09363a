// Benchmarks backing the experiment index in DESIGN.md: one benchmark per
// reproduced complexity claim or simulation study. go test -bench=.
// -benchmem regenerates the raw numbers; cmd/wdmbench renders the derived
// tables.
package wdm_test

import (
	"fmt"
	"testing"

	"wdmsched/internal/async"
	"wdmsched/internal/bipartite"
	"wdmsched/internal/core"
	"wdmsched/internal/fabric"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// benchVector builds a deterministic random request vector.
func benchVector(k, maxPer int, seed uint64) []int {
	rng := traffic.NewRNG(seed)
	vec := make([]int, k)
	for i := range vec {
		vec[i] = rng.Intn(maxPer + 1)
	}
	return vec
}

// benchScheduler runs one scheduler over a fixed vector; the hot path of
// every per-slot decision (experiment P7).
func benchScheduler(b *testing.B, s core.Scheduler, k, maxPer int) {
	b.Helper()
	vec := benchVector(k, maxPer, 1)
	res := core.NewResult(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(vec, nil, res)
	}
}

// BenchmarkFirstAvailable — P5/P7: the O(k) exact scheduler for
// non-circular conversion (paper Table 2).
func BenchmarkFirstAvailable(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			conv := wavelength.MustNew(wavelength.NonCircular, k, 2, 2)
			s, err := core.NewFirstAvailable(conv)
			if err != nil {
				b.Fatal(err)
			}
			benchScheduler(b, s, k, 3)
		})
	}
}

// bfaKernelCase is one input shared by the scalar and word-parallel BFA
// kernel benchmarks, so their rows compare like for like.
type bfaKernelCase struct {
	name string
	conv wavelength.Conversion
	vec  []int
	occ  []bool
}

// bfaKernelCases are the light dense vectors of P6/P7 — on which the first
// candidate breaking edge already reaches the min(requests, channels)
// bound, so both kernels stop after one O(k) sweep and read alike — plus
// the two shapes of the switch-level studies at k=256, d=41: an overloaded
// hot band (8 adjacent wavelengths × 8 requests: 64 requests reach 48
// channels, so the scalar reference never meets its bound and sizes all d
// candidates, while the word-parallel kernel stops at its first, which
// meets min(requests, reachable free channels) = 48) and a dense vector
// over half-occupied channels (the §V occupancy path).
func bfaKernelCases() []bfaKernelCase {
	var cases []bfaKernelCase
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		cases = append(cases, bfaKernelCase{
			name: fmt.Sprintf("k=%d", k),
			conv: wavelength.MustNew(wavelength.Circular, k, 2, 2),
			vec:  benchVector(k, 3, 1),
		})
	}
	const k = 256
	wide := wavelength.MustNew(wavelength.Circular, k, 20, 20)
	hot := make([]int, k)
	for w := 0; w < 8; w++ {
		hot[w] = 8
	}
	occ := make([]bool, k)
	rng := traffic.NewRNG(2)
	for b := range occ {
		occ[b] = rng.Float64() < 0.5
	}
	return append(cases,
		bfaKernelCase{name: "hotband-k=256-d=41", conv: wide, vec: hot},
		bfaKernelCase{name: "halfocc-k=256-d=41", conv: wide, vec: benchVector(k, 3, 1), occ: occ},
	)
}

// benchBFAKernel runs one BFA implementation over bfaKernelCases.
func benchBFAKernel(b *testing.B, name string) {
	for _, tc := range bfaKernelCases() {
		b.Run(tc.name, func(b *testing.B) {
			s, err := core.NewByName(name, tc.conv)
			if err != nil {
				b.Fatal(err)
			}
			res := core.NewResult(tc.conv.K())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Schedule(tc.vec, tc.occ, res)
			}
		})
	}
}

// BenchmarkBreakAndFirstAvailable — P6/P7: the O(dk) exact scheduler for
// circular conversion in its scalar reference transcription (paper
// Table 3).
func BenchmarkBreakAndFirstAvailable(b *testing.B) {
	benchBFAKernel(b, "break-first-available")
}

// BenchmarkFastBreakAndFirstAvailable — the same inputs through the
// word-parallel kernel "exact" builds. Expect rough parity on the light
// k=… rows (one candidate, O(k) either way) and the largest lead on the
// hotband row, where the reference sizes all d candidates and the kernel,
// stopping at the reachable-channel bound, one.
func BenchmarkFastBreakAndFirstAvailable(b *testing.B) {
	benchBFAKernel(b, "exact")
}

// BenchmarkScalingD — P7b: BFA cost grows linearly in the conversion
// degree d at fixed k.
func BenchmarkScalingD(b *testing.B) {
	const k = 64
	for _, d := range []int{3, 5, 9, 17, 33} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			e := (d - 1) / 2
			conv := wavelength.MustNew(wavelength.Circular, k, e, e)
			s, err := core.NewBreakFirstAvailable(conv)
			if err != nil {
				b.Fatal(err)
			}
			benchScheduler(b, s, k, 3)
		})
	}
}

// BenchmarkScalingN — P7c: per-fiber request counts grow with the
// interconnect size N; the distributed scheduler stays flat while the
// Hopcroft–Karp baseline grows (the paper's O(dk) vs O(N^1.5 k^1.5 d)
// comparison).
func BenchmarkScalingN(b *testing.B) {
	const k = 16
	conv := wavelength.MustNew(wavelength.Circular, k, 1, 1)
	for _, n := range []int{4, 8, 16, 32, 64} {
		maxPer := n/4 + 1
		b.Run(fmt.Sprintf("BFA/N=%d", n), func(b *testing.B) {
			s, err := core.NewBreakFirstAvailable(conv)
			if err != nil {
				b.Fatal(err)
			}
			benchScheduler(b, s, k, maxPer)
		})
		b.Run(fmt.Sprintf("HopcroftKarp/N=%d", n), func(b *testing.B) {
			benchScheduler(b, core.NewBaseline(conv), k, maxPer)
		})
	}
}

// BenchmarkPriorityScheduler — S6: strict-priority QoS over two classes.
func BenchmarkPriorityScheduler(b *testing.B) {
	const k = 32
	conv := wavelength.MustNew(wavelength.Circular, k, 1, 1)
	ps, err := core.NewPriorityScheduler(conv)
	if err != nil {
		b.Fatal(err)
	}
	high := benchVector(k, 2, 1)
	low := benchVector(k, 2, 2)
	results := []*core.Result{core.NewResult(k), core.NewResult(k)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.ScheduleClasses([][]int{high, low}, nil, results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncArrival — S10: event-driven asynchronous mode, cost per
// connection arrival (1000 arrivals per iteration).
func BenchmarkAsyncArrival(b *testing.B) {
	conv := wavelength.MustNew(wavelength.Circular, 16, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := async.Run(async.Config{
			Conv: conv, ArrivalRate: 10, MeanHold: 1, Seed: uint64(i),
		}, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHardwareFirstAvailable — the §III register-level datapath, one
// slot (k cycles) per iteration.
func BenchmarkHardwareFirstAvailable(b *testing.B) {
	const n, k = 8, 32
	hw, err := fabric.NewHardwareFirstAvailable(n, k, 1, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := traffic.NewRNG(9)
	var grants []fabric.Grant
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for in := 0; in < n; in++ {
			for w := 0; w < k; w++ {
				if rng.Float64() < 0.3 {
					hw.Register().Mark(in, w)
				}
			}
		}
		grants, err = hw.Schedule(nil, grants[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestEdgeBreak — P8/S2: the O(k) single-break approximation
// (paper Section IV-C).
func BenchmarkShortestEdgeBreak(b *testing.B) {
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			conv := wavelength.MustNew(wavelength.Circular, k, 2, 2)
			s, err := core.NewShortestEdge(conv)
			if err != nil {
				b.Fatal(err)
			}
			benchScheduler(b, s, k, 3)
		})
	}
}

// BenchmarkFullRange — the trivial scheduler, the paper's d = k special
// case.
func BenchmarkFullRange(b *testing.B) {
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			conv := wavelength.MustNew(wavelength.Full, k, 0, 0)
			s, err := core.NewFullRange(conv)
			if err != nil {
				b.Fatal(err)
			}
			benchScheduler(b, s, k, 3)
		})
	}
}

// BenchmarkHopcroftKarpBaseline — the general bipartite matching
// comparator on request graphs.
func BenchmarkHopcroftKarpBaseline(b *testing.B) {
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			conv := wavelength.MustNew(wavelength.Circular, k, 2, 2)
			benchScheduler(b, core.NewBaseline(conv), k, 3)
		})
	}
}

// BenchmarkOccupiedChannels — P9: scheduling with Section V occupancy.
func BenchmarkOccupiedChannels(b *testing.B) {
	const k = 32
	conv := wavelength.MustNew(wavelength.Circular, k, 1, 1)
	s, err := core.NewBreakFirstAvailable(conv)
	if err != nil {
		b.Fatal(err)
	}
	vec := benchVector(k, 3, 1)
	occ := make([]bool, k)
	rng := traffic.NewRNG(2)
	for i := range occ {
		occ[i] = rng.Float64() < 0.4
	}
	res := core.NewResult(k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Schedule(vec, occ, res)
	}
}

// BenchmarkGloverHeap — the convex-graph matching substrate (paper
// Table 1 and its Lipski–Preparata realization).
func BenchmarkGloverHeap(b *testing.B) {
	const nLeft, nRight = 256, 128
	rng := traffic.NewRNG(3)
	begin := make([]int, nLeft)
	end := make([]int, nLeft)
	for a := range begin {
		begin[a] = rng.Intn(nRight)
		end[a] = begin[a] + rng.Intn(nRight-begin[a])
	}
	c, err := bipartite.NewConvexGraph(nRight, begin, end)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("literal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Glover()
		}
	})
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.GloverHeap()
		}
	})
}

// benchSwitch runs whole-interconnect slots — S1/S4.
func benchSwitch(b *testing.B, distributed bool) {
	b.Helper()
	const n, k, slots = 8, 16, 64
	conv := wavelength.MustNew(wavelength.Circular, k, 1, 1)
	tcfg := traffic.Config{N: n, K: k, Seed: 5}
	gen, err := traffic.NewBernoulli(tcfg, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := traffic.Record(gen, tcfg, slots)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := interconnect.New(interconnect.Config{
			N: n, Conv: conv, Seed: 5, Distributed: distributed,
		})
		if err != nil {
			b.Fatal(err)
		}
		rep := tr.Replay()
		var buf []traffic.Packet
		for s := 0; s < slots; s++ {
			buf = rep.Generate(s, buf[:0])
			if err := sw.RunSlot(buf); err != nil {
				b.Fatal(err)
			}
		}
		sw.Finalize() // stop the worker crew before the next iteration's switch
	}
}

// BenchmarkSimulatedSlot — S1: sequential whole-switch slots (64 slots per
// iteration, N=8, k=16, load 1.0). Includes switch construction; for the
// steady-state hot path see BenchmarkSwitchRunSlot.
func BenchmarkSimulatedSlot(b *testing.B) { benchSwitch(b, false) }

// BenchmarkDistributedSlot — S4: worker-crew whole-switch slots (includes
// crew start/stop each iteration).
func BenchmarkDistributedSlot(b *testing.B) { benchSwitch(b, true) }

// runSlotMode is one BenchmarkSwitchRunSlot variant: an engine/telemetry
// selection on the base shape (n=8, k=16, circular(1,1), uniform Bernoulli
// load 1.0), or — when band > 0 — a large-k kernel comparison point: n=4,
// circular(8,8), hot-band traffic (all arrivals on the first band
// wavelengths, all to port 0), scalar reference vs word-parallel scheduler.
// load and holdMean, when set, replace the load-1.0 one-slot packets.
type runSlotMode struct {
	name        string
	distributed bool
	traced      bool
	recorded    bool // attach a FlightRecorder (snapshot cadence inside the 64-slot window)
	n, k, e, f  int
	sched       string  // Config.Scheduler; "" = default exact
	band        int     // hot-band width; 0 = uniform Bernoulli
	workload    string  // adversarial generator: "heavytail", "selfsimilar"; "" = Bernoulli/hot-band
	load        float64 // Bernoulli load; 0 = 1.0
	holdMean    float64 // geometric holding-time mean in slots; 0 = one-slot packets
}

// switchRunSlotModes are the BenchmarkSwitchRunSlot variants: the two
// engines bare, the sequential engine with full observability on
// (telemetry registry + decision tracer — tracing must be free), and the
// large-k scalar-vs-kernel pairs whose ratio is the word-parallel speedup
// recorded in the BENCH trajectory — the scalar side names the Table 3
// reference explicitly, since "exact" is the kernel itself. The dense-holds
// pair is bench/'s dense256 shape: the only modes with live multi-slot
// holds, so the only ones on the input-blocking, occupancy-sweep and
// busy-credit paths. uniform16 is bench/'s uniform16 shape (N=16, k=16,
// d=3, Bernoulli 0.9, one-slot packets), where per-packet bookkeeping
// rather than the kernel dominates a slot.
var switchRunSlotModes = []runSlotMode{
	{name: "sequential", n: 8, k: 16, e: 1, f: 1},
	{name: "uniform16", n: 16, k: 16, e: 1, f: 1, load: 0.9},
	{name: "distributed", distributed: true, n: 8, k: 16, e: 1, f: 1},
	{name: "sequential-traced", traced: true, n: 8, k: 16, e: 1, f: 1},
	{name: "sequential-recorded", recorded: true, n: 8, k: 16, e: 1, f: 1},
	{name: "heavytail", n: 8, k: 16, e: 1, f: 1, workload: "heavytail"},
	{name: "selfsimilar", distributed: true, n: 8, k: 16, e: 1, f: 1, workload: "selfsimilar"},
	{name: "k=128-scalar", n: 8, k: 128, e: 20, f: 20, sched: "break-first-available", band: 8},
	{name: "k=128-fast", n: 8, k: 128, e: 20, f: 20, sched: "fast", band: 8},
	{name: "k=256-scalar", n: 8, k: 256, e: 20, f: 20, sched: "break-first-available", band: 8},
	{name: "k=256-fast", n: 8, k: 256, e: 20, f: 20, sched: "fast", band: 8},
	{name: "dense-holds", n: 8, k: 256, e: 20, f: 20, load: 0.9, holdMean: 2},
	{name: "dense-holds-distributed", distributed: true, n: 8, k: 256, e: 20, f: 20, load: 0.9, holdMean: 2},
}

// newRunSlotSwitch builds the long-lived switch and pregenerated slots
// shared by BenchmarkSwitchRunSlot and its zero-alloc pin.
func newRunSlotSwitch(tb testing.TB, mode runSlotMode) (*interconnect.Switch, [][]traffic.Packet) {
	tb.Helper()
	const slots = 64
	conv := wavelength.MustNew(wavelength.Circular, mode.k, mode.e, mode.f)
	cfg := interconnect.Config{
		N: mode.n, Conv: conv, Seed: 5,
		Scheduler: mode.sched, Distributed: mode.distributed,
	}
	if mode.traced {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Trace = telemetry.NewDecisionTracer(mode.n, 1<<10)
	}
	if mode.recorded {
		// Full observability stack with the flight recorder on: the
		// snapshot cadence of 16 fires 4× inside the 64-slot window, so
		// the pin proves cadenced recording itself is allocation-free.
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Recorder = telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{
			Ports: mode.n, DecisionCap: 1 << 10, SnapshotEvery: 16,
		})
	}
	sw, err := interconnect.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tcfg := traffic.Config{N: mode.n, K: mode.k, Seed: 5, Hold: traffic.HoldingTime{Mean: mode.holdMean}}
	load := mode.load
	if load == 0 {
		load = 1.0
	}
	var gen traffic.Generator
	switch {
	case mode.workload == "heavytail":
		// The adversarial generators drive the same 0 allocs/op pin: bursty
		// Pareto arrivals with skewed destinations must not knock the engine
		// off its steady state.
		gen, err = traffic.NewHeavyTail(tcfg, 0.7, 1.5, 0.8)
	case mode.workload == "selfsimilar":
		gen, err = traffic.NewSelfSimilar(tcfg, 0.9, 1.5, 8*mode.k)
	case mode.band > 0:
		gen, err = traffic.NewHotBand(tcfg, 0.9, 0, mode.band)
	default:
		gen, err = traffic.NewBernoulli(tcfg, load)
	}
	if err != nil {
		tb.Fatal(err)
	}
	pre := make([][]traffic.Packet, slots)
	for s := range pre {
		pre[s] = gen.Generate(s, nil)
	}
	for pass := 0; pass < 4; pass++ { // reach allocation steady state
		for _, pkts := range pre {
			if err := sw.RunSlot(pkts); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sw, pre
}

// BenchmarkSwitchRunSlot — the engine acceptance benchmark: steady-state
// cost of one slot on a long-lived switch, sequential and distributed.
// Every mode must report 0 allocs/op: the persistent engine reuses the
// result buffers, arrival slices, and (in distributed mode) its port
// workers across slots, and the decision tracer writes into preallocated
// per-port rings.
func BenchmarkSwitchRunSlot(b *testing.B) {
	for _, mode := range switchRunSlotModes {
		b.Run(mode.name, func(b *testing.B) {
			sw, pre := newRunSlotSwitch(b, mode)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sw.RunSlot(pre[i%len(pre)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sw.Finalize()
		})
	}
}

// TestSwitchRunSlotZeroAllocs pins the 0 allocs/op acceptance criterion
// as a plain test so `go test ./...` enforces it — with observability
// fully enabled included: attaching a telemetry registry and a decision
// tracer must not put an allocation on the slot hot path.
func TestSwitchRunSlotZeroAllocs(t *testing.T) {
	for _, mode := range switchRunSlotModes {
		t.Run(mode.name, func(t *testing.T) {
			sw, pre := newRunSlotSwitch(t, mode)
			defer sw.Finalize()
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := sw.RunSlot(pre[i%len(pre)]); err != nil {
						b.Fatal(err)
					}
				}
			})
			if a := r.AllocsPerOp(); a != 0 {
				t.Errorf("RunSlot (%s): %d allocs/op, want 0 (%s)", mode.name, a, r.MemString())
			}
		})
	}
}

// BenchmarkTrafficBernoulli — workload generation cost.
func BenchmarkTrafficBernoulli(b *testing.B) {
	gen, err := traffic.NewBernoulli(traffic.Config{N: 16, K: 32, Seed: 7}, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	var buf []traffic.Packet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = gen.Generate(i, buf[:0])
	}
}

// BenchmarkSelector — S5 fairness layer cost.
func BenchmarkSelector(b *testing.B) {
	requesters := []int{0, 2, 3, 5, 8, 9, 11, 13}
	b.Run("round-robin", func(b *testing.B) {
		s := fabric.NewRoundRobin(4)
		var dst []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = s.Pick(1, requesters, 3, dst[:0])
		}
	})
	b.Run("random", func(b *testing.B) {
		s := fabric.NewRandom(11)
		var dst []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dst = s.Pick(1, requesters, 3, dst[:0])
		}
	})
}
