package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"wdmsched/bench/stats"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/traffic"
)

// sliceLen is how long one configuration runs before the next takes its
// turn, so that drift in the machine's speed hits all of them alike.
const sliceLen = 500 * time.Millisecond

// timed is one configuration of the timed region.
type timed interface {
	// slice measures for about d and keeps the samples.
	slice(d time.Duration) error
}

// takeTurns gives every configuration equal slices until budget is spent.
func takeTurns(budget time.Duration, cfgs []timed) error {
	rounds := int(budget / (sliceLen * time.Duration(len(cfgs))))
	if rounds < 1 {
		rounds = 1
	}
	d := budget / time.Duration(rounds*len(cfgs))
	for i := 0; i < rounds; i++ {
		for _, c := range cfgs {
			if err := c.slice(d); err != nil {
				return err
			}
		}
	}
	return nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// slotTimer times an engine in blocks of a fixed slot count; the metric is
// the first quartile of the block means (stats.Typical), which stalls in a
// minority of blocks cannot move.
type slotTimer struct {
	e       *slotEngine
	block   int
	blocks  []float64 // µs per slot, one value per block
	mallocs uint64
	slots   int64
	ck      *checks

	// Traced run: cumulative ns counters kept by the benchmark's wrappers
	// inside the engine (the probe's batch and kernel time, the cluster
	// wrapper's batch time), read around every block so that a layer's time
	// gets the same per-block estimator as the slot.
	counters []func() int64
	inside   [][]float64 // per counter: µs per slot, one value per block
}

func (t *slotTimer) slice(d time.Duration) error {
	if t.blocks == nil {
		// No growth, so no allocation of the timer's own, in the timed region.
		t.blocks = make([]float64, 0, 1<<17)
		t.inside = make([][]float64, len(t.counters))
		for i := range t.inside {
			t.inside[i] = make([]float64, 0, 1<<17)
		}
	}
	before := make([]int64, len(t.counters))
	m0, passes0 := mallocs(), len(t.e.passes)
	start := time.Now()
	for time.Since(start) < d {
		for i, c := range t.counters {
			before[i] = c()
		}
		b0 := time.Now()
		t.ck.ops(int64(t.block))
		if err := t.e.run(t.block); err != nil {
			t.ck.fail(1, "%v", err)
			return err
		}
		t.blocks = append(t.blocks, float64(time.Since(b0))/float64(t.block)/1e3)
		for i, c := range t.counters {
			t.inside[i] = append(t.inside[i], float64(c()-before[i])/float64(t.block)/1e3)
		}
		t.slots += int64(t.block)
	}
	// A pass-boundary snapshot is the benchmark's: its two slices are not
	// the program's allocations.
	t.mallocs += mallocs() - m0 - 2*uint64(len(t.e.passes)-passes0)
	return nil
}

// simTimer times whole simulator lifecycles: build a switch, run a fresh
// generator through it, finalize. Every paper-sweep point is one of these.
type simTimer struct {
	w       workloadDef
	seed    uint64
	slots   int
	want    interconnect.Snapshot // the sequential engine's counters after the same slots
	runs    []float64             // ms per lifecycle
	newNS   int64
	finNS   int64
	mallocs uint64
	ck      *checks
}

func (t *simTimer) once() error {
	t0 := time.Now()
	gen, err := t.w.generator(t.seed)
	if err != nil {
		return err
	}
	conv, err := t.w.conv()
	if err != nil {
		return err
	}
	sw, err := interconnect.New(interconnect.Config{N: t.w.N, Conv: conv, Seed: t.seed})
	if err != nil {
		return err
	}
	t1 := time.Now()
	var buf []traffic.Packet
	for s := 0; s < t.slots; s++ {
		buf = gen.Generate(s, buf[:0])
		if err := sw.RunSlot(buf); err != nil {
			return err
		}
	}
	t2 := time.Now()
	st := sw.Finalize()
	t3 := time.Now()
	t.runs = append(t.runs, float64(t3.Sub(t0))/1e6)
	t.newNS += int64(t1.Sub(t0))
	t.finNS += int64(t3.Sub(t2))
	t.ck.ops(1)
	t.ck.failAll(checkLifecycle(st.Offered.Value(), st.Granted.Value(), t.want))
	return nil
}

// gcEvery is how many lifecycles run between two collections of a simulator
// slice.
const gcEvery = 128

// slice keeps the collector out of the samples: it is switched off while
// lifecycles run and run by hand between them. In this process its pacing
// and its mark work are set by the benchmark's own heap (the window, the
// samples), not by the lifecycle; and New and Finalize each stop the world
// to read MemStats, which has to wait for a cycle in progress — on a
// throttled VM for milliseconds, in most samples. What a lifecycle
// allocates is counted (sim.mallocs_per_run); what collecting it costs in a
// real sweep, whose heap is a few MB, is in the sweep times of the traced run.
func (t *simTimer) slice(d time.Duration) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m0 := mallocs()
	start := time.Now()
	for n := 1; time.Since(start) < d; n++ {
		if err := t.once(); err != nil {
			t.ck.fail(1, "sim: %v", err)
			return err
		}
		if n%gcEvery == 0 {
			runtime.GC()
		}
	}
	t.mallocs += mallocs() - m0
	runtime.GC()
	return nil
}

// grantTimer times closed-loop round trips of one frame size.
type grantTimer struct {
	r         *rig
	frame     int
	cursor    int
	rtt       []int64 // ns per frame
	submitNS  int64
	waitNS    int64
	mallocs   uint64
	rounds    int64   // scheduling rounds the service ran during the slices
	wireBytes float64 // bytes the service received and sent during the slices
	tr        *tracer
	ck        *checks
}

// wire is the service's byte count, both directions.
func (t *grantTimer) wire() float64 {
	return registryValue(t.r.grant.reg, "wdm_grant_rx_bytes_total", "wdm_grant_tx_bytes_total")
}

func (t *grantTimer) slice(d time.Duration) error {
	m0, rounds0, wire0 := mallocs(), t.r.grant.svc.Slots(), t.wire()
	start := time.Now()
	for time.Since(start) < d {
		f := t.r.frame(t.frame, t.cursor)
		t.cursor = (t.cursor + t.frame) % len(t.r.win.reqs)
		t0 := time.Now()
		sub, err := t.r.grant.roundTrip(f)
		t1 := time.Now()
		t.ck.ops(int64(t.frame))
		if err != nil {
			t.ck.fail(int64(t.frame), "grant: round trip: %v", err)
			return err
		}
		t.rtt = append(t.rtt, int64(t1.Sub(t0)))
		t.submitNS += int64(sub.Sub(t0))
		t.waitNS += int64(t1.Sub(sub))
		if t.tr != nil && len(t.rtt)%64 == 0 {
			id := int64(f[0].ID)
			root := t.tr.add("request", -1, id, t0, t1)
			t.tr.add("Client.Submit", root, id, t0, sub)
			t.tr.add("Recv", root, id, sub, t1)
		}
	}
	t.mallocs += mallocs() - m0
	t.rounds += t.r.grant.svc.Slots() - rounds0
	t.wireBytes += t.wire() - wire0
	return nil
}

// endToEndRun is the untraced measurement of one workload. The traced run
// repeats it with a smaller budget to get the baselines its shares need.
type endToEndRun struct {
	rig     *rig
	setups  []float64 // seconds per set-up
	slot    map[string]*slotTimer
	sim     *simTimer
	rtt1    *grantTimer
	rtt256  *grantTimer
	ck      *checks
	stopped bool
}

// setupsPerRun is how often an untraced run sets up; setup_s is the median.
const setupsPerRun = 5

// quickWindow is the window of -quick runs, slots.
const quickWindow = 64

// startEndToEnd sets the rig up (several times, for a steady setup_s) and
// prepares the timers.
func startEndToEnd(w workloadDef, seed uint64, quick bool, setups int, tr *tracer, root int, ck *checks) (*endToEndRun, error) {
	windowSlots := w.Window
	if quick {
		setups, windowSlots = 1, quickWindow
	}
	run := &endToEndRun{ck: ck, slot: map[string]*slotTimer{}}
	for i := 0; i < setups; i++ {
		if run.rig != nil {
			ck.failAll(run.rig.close())
			// Give the old rig back now, so that the high-water mark is one
			// rig plus its build garbage whatever the collector's pacing.
			debug.FreeOSMemory()
		}
		sp := tr.begin("setup", root, -1)
		r, seconds, err := setup(w, seed, windowSlots, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		run.setups = append(run.setups, seconds)
		run.rig = r
	}
	r := run.rig
	for _, e := range r.engines {
		ck.ops(e.slots)
		run.slot[e.name] = &slotTimer{e: e, block: w.Block, ck: ck}
	}
	// The warm-up pass ran every engine over the whole window: they must
	// agree before anything is timed.
	run.checkEngines()

	// The simulator lifecycle replays the head of the same generator stream,
	// so a sequential switch fed the window's first simSlots is its reference.
	run.sim = &simTimer{w: w, seed: seed, slots: w.SimSlots, ck: ck}
	ref, err := interconnect.New(interconnect.Config{N: w.N, Conv: r.conv, Seed: seed})
	if err != nil {
		return nil, err
	}
	defer ref.Finalize()
	for _, pkts := range r.win.slots[:run.sim.slots] {
		if err := ref.RunSlot(pkts); err != nil {
			return nil, err
		}
	}
	ref.Snapshot(&run.sim.want)
	if err := run.sim.once(); err != nil { // warm-up lifecycle
		return nil, err
	}
	run.sim.runs, run.sim.newNS, run.sim.finNS = nil, 0, 0

	run.rtt1 = &grantTimer{r: r, frame: 1, ck: ck, tr: tr}
	run.rtt256 = &grantTimer{r: r, frame: 256, ck: ck, tr: tr}
	return run, nil
}

// checkEngines compares every engine with the sequential one at the pass
// boundaries both reached.
func (run *endToEndRun) checkEngines() {
	ref := run.rig.engine("seq")
	for _, e := range run.rig.engines {
		run.ck.ops(1)
		run.ck.failAll(checkSnapshots(ref.name, ref.passes, e.name, e.passes))
	}
}

// measure runs the timed region.
func (run *endToEndRun) measure(budget time.Duration) error {
	cfgs := []timed{run.slot["seq"], run.slot["pool"], run.slot["cluster"], run.slot["fast"],
		run.sim, run.rtt1, run.rtt256}
	return takeTurns(budget, cfgs)
}

// stop runs the closing checks and tears the rig down.
func (run *endToEndRun) stop() {
	if run.stopped {
		return
	}
	run.stopped = true
	run.checkEngines()
	run.ck.ops(1)
	run.ck.failAll(checkFallback(run.rig.cluster.ctrl.ClusterStats().LocalFallbackItems.Value()))
	run.ck.ops(1)
	run.ck.failAll(run.rig.close())
}

// values reports the end-to-end metrics.
func (run *endToEndRun) values(out map[string]float64) {
	out["setup_s"] = stats.Median(run.setups)
	for name, t := range run.slot {
		out[name+".slot_us"] = stats.Typical(t.blocks)
	}
	out["sim.run_ms"] = stats.Typical(run.sim.runs)
	// A median is reported whatever the sample count: a full-length run has
	// thousands of frames, and an end-to-end metric may never read 0.
	for name, t := range map[string]*grantTimer{"grant.rtt1_p50_us": run.rtt1, "grant.rtt256_p50_us": run.rtt256} {
		p50, _ := stats.Percentile(t.rtt, 50)
		out[name] = float64(p50) / 1e3
	}
	out["peak_rss_mb"] = peakRSSMiB()
}

// blockSummaries describes the steadiness of each timing metric.
func (run *endToEndRun) blockSummaries() map[string]stats.Summary {
	s := map[string]stats.Summary{"sim.run_ms": stats.Summarize(run.sim.runs)}
	for name, t := range run.slot {
		s[name+".slot_us"] = stats.Summarize(t.blocks)
	}
	for name, t := range map[string]*grantTimer{"grant.rtt1_p50_us": run.rtt1, "grant.rtt256_p50_us": run.rtt256} {
		us := make([]float64, len(t.rtt))
		for i, ns := range t.rtt {
			us[i] = float64(ns) / 1e3
		}
		s[name] = stats.Summarize(us)
	}
	return s
}
