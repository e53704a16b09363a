package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	wdm "wdmsched"
	"wdmsched/bench/stats"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
)

// spanEvery is the slot sampling period of the slot span tree.
const spanEvery = 64

// histMark remembers a histogram's count and sum so a mean can be taken
// over an interval. Sum and count are exact; only the histogram's
// quantiles are bucket edges, and those are never read.
type histMark struct {
	count int64
	sum   time.Duration
}

func markHist(h *metrics.DurationHistogram) histMark { return histMark{h.Count(), h.Sum()} }

// meanSinceUS is the mean of the observations since m, in µs.
func meanSinceUS(h *metrics.DurationHistogram, m histMark) float64 {
	n := h.Count() - m.count
	if n <= 0 {
		return 0
	}
	return float64(h.Sum()-m.sum) / float64(n) / 1e3
}

// stageSums reads the grant service's per-stage histograms from its
// registry: observation count and summed seconds per stage.
func stageSums(reg *telemetry.Registry) (count map[string]int64, sum map[string]float64) {
	count, sum = map[string]int64{}, map[string]float64{}
	for _, m := range reg.Snapshot() {
		if m.Name != "wdm_grant_stage_seconds" {
			continue
		}
		for _, l := range m.Labels {
			if l.Key == "stage" {
				count[l.Value] += m.Count
				sum[l.Value] += m.Sum
			}
		}
	}
	return count, sum
}

// registryValue sums the series of the given names, from one snapshot.
func registryValue(reg *telemetry.Registry, names ...string) float64 {
	var v float64
	for _, m := range reg.Snapshot() {
		if slices.Contains(names, m.Name) {
			v += m.Value
		}
	}
	return v
}

// tracedRun is the layer-by-layer measurement of one workload.
type tracedRun struct {
	*endToEndRun
	tr     *tracer
	extras []*slotEngine // probe-exact, probe-fast, traced, recorded
	timers map[string]*slotTimer
	probes map[string]*probe
}

// runTraced fills values with the per-layer metrics and baselines with the
// end-to-end metrics as this run measured them, on a smaller budget, for the
// reader who wants to relate a layer to the slot of the same run.
func runTraced(w workloadDef, o options, budget time.Duration, ck *checks, values, baselines map[string]float64) ([]selfTime, error) {
	tr := newTracer()
	root := tr.begin("run", -1, -1)
	base, err := startEndToEnd(w, o.seed, o.quick, 1, tr, root, ck)
	if err != nil {
		return nil, err
	}
	defer base.stop()
	t := &tracedRun{endToEndRun: base, tr: tr, timers: map[string]*slotTimer{}, probes: map[string]*probe{}}
	defer t.closeExtras()
	if err := t.buildExtras(); err != nil {
		return nil, err
	}

	// Marks for the means over the timed region.
	cs := t.rig.cluster.ctrl.ClusterStats()
	clusterHists := map[string]*metrics.DurationHistogram{
		"cluster.rpc_us": cs.RPCLatency, "cluster.encode_us": cs.EncodeTime,
		"cluster.node_decode_us": cs.NodeDecodeTime, "cluster.node_schedule_us": cs.NodeScheduleTime,
		"cluster.node_encode_us": cs.NodeEncodeTime, "cluster.prepare_us": cs.PrepareTime,
		"cluster.commit_us": cs.CommitTime,
	}
	clusterMarks := map[string]histMark{}
	for name, h := range clusterHists {
		clusterMarks[name] = markHist(h)
	}
	bytes0 := cs.BytesSent.Value() + cs.BytesReceived.Value()
	frames0 := cs.FramesSent.Value()
	batch := t.rig.cluster.batch
	t.slot["cluster"].counters = []func() int64{func() int64 { return batch.ns }}
	stageN0, stageS0 := stageSums(t.rig.grant.reg)

	cfgs := []timed{t.slot["seq"], t.slot["pool"], t.slot["cluster"], t.slot["fast"],
		t.timers["probe-exact"], t.timers["probe-fast"], t.timers["traced"], t.timers["recorded"],
		t.sim, t.rtt1, t.rtt256}
	if err := takeTurns(budget*55/100, cfgs); err != nil {
		return nil, err
	}

	// ---- values from the timed region ----
	t.values(baselines)
	win := t.rig.win
	values["traffic.gen_us_per_slot"] = stats.Typical(win.genSlot) * 1e6
	values["traffic.packets_per_slot"] = float64(win.packets) / float64(len(win.slots))
	values["traffic.mean_duration"] = float64(win.durSum) / float64(win.packets)

	seq := t.slot["seq"]
	seqUS := stats.Typical(seq.blocks)
	t.probeValues(values, seqUS)

	var snap interconnect.Snapshot
	t.rig.engine("seq").sw.Snapshot(&snap)
	slots := math.Max(float64(snap.Slots), 1)
	offered := math.Max(float64(snap.Offered), 1)
	values["interconnect.offered_per_slot"] = float64(snap.Offered) / slots
	values["interconnect.granted_per_slot"] = float64(snap.Granted) / slots
	values["interconnect.input_blocked_share"] = float64(snap.InputBlocked) / offered
	values["interconnect.dropped_share"] = float64(snap.OutputDropped) / offered
	s0 := time.Now()
	const snapshots = 1000
	for i := 0; i < snapshots; i++ {
		t.rig.engine("seq").sw.Snapshot(&snap)
	}
	values["interconnect.snapshot_us"] = float64(time.Since(s0)) / snapshots / 1e3
	runs := math.Max(float64(len(t.sim.runs)), 1)
	values["interconnect.new_ms"] = float64(t.sim.newNS) / runs / 1e6
	values["interconnect.finalize_ms"] = float64(t.sim.finNS) / runs / 1e6
	values["interconnect.pool_speedup"] = seqUS / stats.Typical(t.slot["pool"].blocks)
	values["sim.mallocs_per_run"] = float64(t.sim.mallocs) / runs

	clusterSlots := math.Max(float64(t.slot["cluster"].slots), 1)
	values["cluster.batch_us"] = stats.Typical(t.slot["cluster"].inside[0])
	for name, h := range clusterHists {
		values[name] = meanSinceUS(h, clusterMarks[name])
	}
	values["cluster.bytes_per_slot"] = float64(cs.BytesSent.Value()+cs.BytesReceived.Value()-bytes0) / clusterSlots
	values["cluster.frames_per_slot"] = float64(cs.FramesSent.Value()-frames0) / clusterSlots
	values["cluster.retries"] = float64(cs.Retries.Value())
	values["cluster.fallback_items"] = float64(cs.LocalFallbackItems.Value())
	values["cluster.remote_share"] = cs.RemoteFraction()

	values["telemetry.traced_slot_us"] = stats.Typical(t.timers["traced"].blocks)
	values["telemetry.recorded_slot_us"] = stats.Typical(t.timers["recorded"].blocks)
	values["telemetry.overhead_share"] = values["telemetry.recorded_slot_us"]/seqUS - 1
	values["metrics.observe_ns"] = observeCost()

	for name, st := range t.slot {
		values[name+".allocs_per_slot"] = float64(st.mallocs) / math.Max(float64(st.slots), 1)
	}
	iqr := 0.0
	for _, s := range t.blockSummaries() {
		iqr = math.Max(iqr, s.IQRShare())
	}
	values["bench.block_iqr_share"] = iqr

	t.grantValues(values, stageN0, stageS0)

	// ---- phases of their own ----
	if err := t.pipelined(values, budget*4/100); err != nil {
		return nil, err
	}
	if err := t.sweep(values, o.quick); err != nil {
		return nil, err
	}
	t.closeExtras()
	t.stop() // frees the closed-loop service before the ladder starts its own
	values["interconnect.pool_busy_ratio"] = t.rig.poolBusyRatio
	if err := t.openLadder(values, budget*6/100); err != nil {
		return nil, err
	}

	tr.end(root)
	values["trace.spans"] = float64(len(tr.spans))
	if err := tr.writeChrome(filepath.Join(outDir, w.Name+".trace.json")); err != nil {
		return nil, err
	}
	return selfTimes(tr.spans), nil
}

// buildExtras adds the engines only the traced run drives: the sequential
// engine through the probe (exact and fast kernels) and with the program's
// own telemetry attached. Each gets the same warm-up pass as the others.
func (t *tracedRun) buildExtras() error {
	r := t.rig
	w, seed := r.w, r.seed
	for _, c := range []struct {
		name, scheduler string
	}{{"probe-exact", "exact"}, {"probe-fast", "fast"}} {
		p, err := newProbe(r.conv, w.N, c.scheduler)
		if err != nil {
			return err
		}
		p.tr = t.tr
		sw, err := interconnect.New(interconnect.Config{N: w.N, Conv: r.conv, Seed: seed, Remote: p})
		if err != nil {
			return err
		}
		t.probes[c.name] = p
		t.extras = append(t.extras, &slotEngine{name: c.name, sw: sw, win: r.win, probe: p, tr: t.tr})
	}
	traced := interconnect.Config{N: w.N, Conv: r.conv, Seed: seed,
		Telemetry: telemetry.NewRegistry(), Trace: telemetry.NewDecisionTracer(w.N, 1<<10)}
	// The recorder is configured as grant.NewService configures its own.
	recorded := interconnect.Config{N: w.N, Conv: r.conv, Seed: seed,
		Telemetry: telemetry.NewRegistry(),
		Recorder:  telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{Ports: w.N, SnapshotEvery: 1024, ExemplarWindow: 1024})}
	for _, c := range []struct {
		name string
		cfg  interconnect.Config
	}{{"traced", traced}, {"recorded", recorded}} {
		sw, err := interconnect.New(c.cfg)
		if err != nil {
			return err
		}
		t.extras = append(t.extras, &slotEngine{name: c.name, sw: sw, win: r.win})
	}
	for _, e := range t.extras {
		tr := e.tr
		e.tr = nil // no spans from the warm-up pass
		if err := e.run(len(r.win.slots)); err != nil {
			return err
		}
		e.tr = tr
		t.ck.ops(e.slots)
		st := &slotTimer{e: e, block: w.Block, ck: t.ck}
		if p := e.probe; p != nil {
			st.counters = []func() int64{func() int64 { return p.batchNS }, func() int64 { return p.kernelNS }}
		}
		t.timers[e.name] = st
	}
	for _, p := range t.probes {
		p.reset()
	}
	return nil
}

// closeExtras checks the extra engines against the sequential one and
// finalizes them.
func (t *tracedRun) closeExtras() {
	ref := t.rig.engine("seq")
	for _, e := range t.extras {
		t.ck.ops(1)
		if ref != nil {
			t.ck.failAll(checkSnapshots(ref.name, ref.passes, e.name, e.passes))
		}
		e.sw.Finalize()
	}
	for name, p := range t.probes {
		t.ck.ops(1)
		t.ck.failAll(p.problems(name))
	}
	t.extras, t.probes = nil, map[string]*probe{}
}

// probeValues splits the probed sequential slot into kernel and
// orchestration, block by block: per block, orchestration is RunSlot minus
// ScheduleBatch, the kernel is the Schedule loop, and the probe's own
// bookkeeping (batch minus kernel) is taken out of the slot.
func (t *tracedRun) probeValues(values map[string]float64, seqUS float64) {
	w := t.rig.w
	for _, kind := range []string{"exact", "fast"} {
		p, st := t.probes["probe-"+kind], t.timers["probe-"+kind]
		batch, kernelBlocks := st.inside[0], st.inside[1]
		runslotBlocks := make([]float64, len(st.blocks))
		orchBlocks := make([]float64, len(st.blocks))
		for i, total := range st.blocks {
			runslotBlocks[i] = total - (batch[i] - kernelBlocks[i])
			orchBlocks[i] = total - batch[i]
		}
		runslot, kernel := stats.Typical(runslotBlocks), stats.Typical(kernelBlocks)
		values["core."+kind+".kernel_us"] = kernel
		values["core."+kind+".kernel_share"] = kernel / runslot
		if kind != "exact" {
			continue
		}
		nonEmpty := math.Max(float64(p.nonEmpty), 1)
		values["interconnect.runslot_us"] = runslot
		values["interconnect.orch_us"] = stats.Typical(orchBlocks)
		values["interconnect.orch_share"] = values["interconnect.orch_us"] / runslot
		values["core.exact.ns_per_port"] = kernel * 1e3 * float64(p.portSlots) / nonEmpty / float64(w.N)
		values["core.requests_per_port"] = float64(p.requests) / nonEmpty
		values["core.nonempty_port_share"] = float64(p.nonEmpty) / math.Max(float64(p.portSlots), 1)
		values["core.occupied_share"] = float64(p.occupied) / math.Max(float64(p.portSlots*int64(w.K)), 1)
		values["core.match_size_mean"] = float64(p.matched) / nonEmpty
		values["core.hk.kernel_us"] = float64(p.hkNS) / math.Max(float64(p.hkSlots), 1) / 1e3
		values["core.hk_mismatch"] = float64(p.hkMismatch)
		// The probed, span-recorded slot against the untraced one is what
		// the benchmark's own tracing costs.
		values["trace.overhead_share"] = stats.Typical(st.blocks)/seqUS - 1
	}
}

// observeCost times DurationHistogram.Observe, the unit every stage clock
// and slot-latency probe in the program pays.
func observeCost() float64 {
	h := metrics.NewDurationHistogram()
	const n = 1 << 20
	t0 := time.Now()
	for i := 0; i < n; i++ {
		h.Observe(time.Duration(i))
	}
	return float64(time.Since(t0)) / n
}

// grantValues reports the closed-loop grant path by stage and by side.
func (t *tracedRun) grantValues(values map[string]float64, n0 map[string]int64, s0 map[string]float64) {
	n1, s1 := stageSums(t.rig.grant.reg)
	for _, stage := range telemetry.GrantStageNames {
		mean := 0.0
		if dn := n1[stage] - n0[stage]; dn > 0 {
			mean = (s1[stage] - s0[stage]) / float64(dn) * 1e6
		}
		values["grant.stage."+stage+"_us"] = mean
	}
	f1 := math.Max(float64(len(t.rtt1.rtt)), 1)
	f256 := math.Max(float64(len(t.rtt256.rtt)), 1)
	values["grant.rounds_per_frame"] = float64(t.rtt256.rounds) / f256
	values["grant.reqs_per_round"] = 256 * f256 / math.Max(float64(t.rtt256.rounds), 1)
	values["grant.client.submit_us"] = float64(t.rtt1.submitNS) / f1 / 1e3
	values["grant.client.recv_wait_us"] = float64(t.rtt1.waitNS) / f1 / 1e3
	values["grant.wire.bytes_per_req"] = t.rtt256.wireBytes / (256 * f256)
	values["grant.allocs_per_req"] = float64(t.rtt256.mallocs) / (256 * f256)
	g := t.rig.grant
	values["grant.granted_share"] = float64(g.tally.Granted) / math.Max(float64(g.nextID), 1)
	values["grant.rtt1_p99_us"] = pctUS(t.rtt1.rtt, 99)
	values["grant.rtt256_p99_us"] = pctUS(t.rtt256.rtt, 99)
}

// pipelined keeps 8 frames of 64 requests in flight on the closed-loop
// session. Its rate swings 2–3× between identical runs on a shared VM, so
// it is a diagnostic and never gated.
func (t *tracedRun) pipelined(values map[string]float64, d time.Duration) error {
	const frame, window = 64, 8
	g := t.rig.grant
	outstanding, done, cursor := 0, 0, 0
	recv := func() error {
		ev, err := g.client.Recv()
		if err != nil {
			return err
		}
		for _, nt := range ev.Notices {
			g.ids.verdict(nt.ID)
			g.tally.note(nt.Verdict)
		}
		outstanding -= len(ev.Notices)
		done += len(ev.Notices)
		return nil
	}
	start := time.Now()
	for time.Since(start) < d {
		for outstanding <= (window-1)*frame {
			f := t.rig.frame(frame, cursor)
			cursor = (cursor + frame) % len(t.rig.win.reqs)
			for i := range f {
				f[i].ID = g.nextID
				g.nextID++
			}
			g.ids.submitted(frame)
			t.ck.ops(frame)
			if err := g.client.Submit(f); err != nil {
				return err
			}
			outstanding += frame
		}
		if err := recv(); err != nil {
			return err
		}
	}
	for outstanding > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	values["grant.pipelined_rps"] = float64(done) / time.Since(start).Seconds()
	return nil
}

// sweep runs one pass of the paper experiments through the public facade,
// times each, and holds the tables to the golden copies.
func (t *tracedRun) sweep(values map[string]float64, quick bool) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, id := range sweepIDs {
		t0 := time.Now()
		tables, err := wdm.RunExperiment(id, wdm.ExperimentConfig{Quick: quick})
		if err != nil {
			return fmt.Errorf("sweep %s: %w", id, err)
		}
		values["sim."+id+"_s"] = time.Since(t0).Seconds()
		t.ck.ops(1)
		t.ck.failAll(checkGolden(id, quick, renderTables(tables)))
		if id == "S14" {
			t.ck.ops(1)
			t.ck.failAll(checkMakespanBound(tables))
		}
	}
	runtime.ReadMemStats(&m1)
	values["sim.mallocs_per_pass"] = float64(m1.Mallocs - m0.Mallocs)
	values["sim.bytes_per_pass"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	return nil
}
