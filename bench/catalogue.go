package main

import (
	"encoding/json"
	"fmt"
)

// runSeconds is the measuring time of one run under the acceptance driver
// (BENCHMARK.json run_seconds) and the default of -seconds.
const runSeconds = 30

// metricDef describes one metric. End-to-end metrics carry a Bound;
// per-layer metrics carry Moves, the end-to-end metric(s) a change to that
// layer should move ("none" for numbers that only qualify the run).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
	Doc    string
}

// endToEnd is what a user of the system sees, for every workload: the cost
// of one slot on each engine, of one simulator lifecycle, of one grant round
// trip, and what the run cost to set up and hold in memory. None is ever 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "one full set-up (traffic pre-generation, four interconnect.New, two cluster nodes + controller, grant service + dial, warm-up pass, runtime.GC) by the set-up clock: chunked steps count as chunks x first quartile, one-off steps as measured; median of the five set-ups of a run"},
	{Name: "seq.slot_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "one Switch.RunSlot, sequential engine, Scheduler \"\" (exact); first quartile of block means"},
	{Name: "pool.slot_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "same slot stream, Distributed: true (worker pool)"},
	{Name: "cluster.slot_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "same slot stream, Remote: a cluster.Controller over 2 in-process cluster.Nodes on 127.0.0.1 TCP"},
	{Name: "fast.slot_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "same as seq with Scheduler \"fast\" (word-parallel kernels)"},
	{Name: "sim.run_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "one interconnect.New -> Switch.Run(generator, simSlots) -> Finalize lifecycle, the unit every paper sweep point is made of; first quartile of lifecycles"},
	{Name: "grant.rtt1_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "closed-loop Client.Submit -> every verdict Recv'd, 1-request frames, TCP loopback; p50 of raw samples"},
	{Name: "grant.rtt256_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "same, 256-request frames"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15,
		Doc: "max RSS of the benchmark process (getrusage)"},
}

// openRates is the open-loop ladder of the traced run, requests per second.
var openRates = []struct {
	Tag  string
	Rate float64
}{{"r10k", 10e3}, {"r25k", 25e3}, {"r50k", 50e3}, {"r100k", 100e3}, {"r200k", 200e3}}

// sweepIDs are the paper experiments of the traced run's sweep pass.
var sweepIDs = []string{"S1", "S2", "S3", "S8", "S13", "S14"}

const (
	allSlot  = "seq.slot_us,pool.slot_us,cluster.slot_us,fast.slot_us"
	kernel   = "seq.slot_us,fast.slot_us,pool.slot_us"
	grantRTT = "grant.rtt1_p50_us,grant.rtt256_p50_us"
)

// perLayer is measured by the traced run, from outside: around calls into
// public functions and from counters the program already keeps.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := func(name, unit, better, moves, doc string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Moves: moves, Doc: doc}
	}
	m := []metricDef{
		l("traffic.gen_us_per_slot", "us", "lower", "setup_s,sim.run_ms", "Generator.Generate per slot while pre-generating the window"),
		l("traffic.packets_per_slot", "count", "higher", "none", "offered packets per slot of the window (input size)"),
		l("traffic.mean_duration", "count", "lower", "none", "mean packet holding time in slots (input property)"),

		l("interconnect.runslot_us", "us", "lower", "seq.slot_us", "RunSlot of the probed sequential engine, probe overhead removed"),
		l("interconnect.orch_us", "us", "lower", allSlot, "RunSlot minus ScheduleBatch: admission, request build, commit, stats"),
		l("interconnect.orch_share", "ratio", "lower", allSlot, "orch_us / runslot_us"),
		l("interconnect.offered_per_slot", "count", "higher", "none", "Snapshot.Offered per slot"),
		l("interconnect.granted_per_slot", "count", "higher", "none", "Snapshot.Granted per slot"),
		l("interconnect.input_blocked_share", "ratio", "lower", "none", "InputBlocked / Offered"),
		l("interconnect.dropped_share", "ratio", "lower", "none", "OutputDropped / Offered"),
		l("interconnect.snapshot_us", "us", "lower", grantRTT, "one Switch.Snapshot (the grant service takes one every resync)"),
		l("interconnect.new_ms", "ms", "lower", "sim.run_ms,setup_s", "interconnect.New, sequential exact"),
		l("interconnect.finalize_ms", "ms", "lower", "sim.run_ms", "Switch.Finalize after a simulator lifecycle"),
		l("interconnect.pool_speedup", "ratio", "higher", "pool.slot_us", "seq.slot_us / pool.slot_us of the same run"),
		l("interconnect.pool_busy_ratio", "ratio", "higher", "pool.slot_us", "EngineStats.Speedup(): port busy time over scheduling wall time"),

		l("core.exact.kernel_us", "us", "lower", "seq.slot_us,pool.slot_us,cluster.slot_us", "sum of core.Scheduler.Schedule over the ports of a slot, exact"),
		l("core.fast.kernel_us", "us", "lower", "fast.slot_us", "same with the fast schedulers"),
		l("core.exact.kernel_share", "ratio", "lower", "seq.slot_us", "exact kernel_us / probed RunSlot"),
		l("core.fast.kernel_share", "ratio", "lower", "fast.slot_us", "fast kernel_us / probed RunSlot"),
		l("core.exact.ns_per_port", "ns", "lower", kernel, "exact kernel time per non-empty port"),
		l("core.requests_per_port", "count", "higher", "none", "requests per non-empty port-slot (kernel input size)"),
		l("core.nonempty_port_share", "ratio", "higher", "none", "port-slots with at least one request"),
		l("core.occupied_share", "ratio", "higher", "none", "output channels held by earlier connections, per port-slot"),
		l("core.match_size_mean", "count", "higher", "none", "mean matching size per non-empty port-slot"),
		l("core.hk.kernel_us", "us", "lower", "none", "Hopcroft-Karp on the same instances, 1/256 sampled slots (oracle cost)"),
		l("core.hk_mismatch", "count", "lower", "none", "sampled port-slots where exact size != Hopcroft-Karp size; must be 0"),

		l("cluster.batch_us", "us", "lower", "cluster.slot_us", "Controller.ScheduleBatch, timed by the bench wrapper"),
		l("cluster.rpc_us", "us", "lower", "cluster.slot_us", "ClusterStats.RPCLatency mean"),
		l("cluster.encode_us", "us", "lower", "cluster.slot_us", "ClusterStats.EncodeTime mean"),
		l("cluster.node_decode_us", "us", "lower", "cluster.slot_us", "ClusterStats.NodeDecodeTime mean"),
		l("cluster.node_schedule_us", "us", "lower", "cluster.slot_us", "ClusterStats.NodeScheduleTime mean"),
		l("cluster.node_encode_us", "us", "lower", "cluster.slot_us", "ClusterStats.NodeEncodeTime mean"),
		l("cluster.prepare_us", "us", "lower", "cluster.slot_us", "ClusterStats.PrepareTime mean"),
		l("cluster.commit_us", "us", "lower", "cluster.slot_us", "ClusterStats.CommitTime mean"),
		l("cluster.bytes_per_slot", "B", "lower", "cluster.slot_us", "wire bytes sent + received per slot"),
		l("cluster.frames_per_slot", "count", "lower", "cluster.slot_us", "frames sent per slot"),
		l("cluster.retries", "count", "lower", "cluster.slot_us", "re-sent RPCs"),
		l("cluster.fallback_items", "count", "lower", "cluster.slot_us", "port-slots scheduled locally after a missed deadline; must be 0"),
		l("cluster.remote_share", "ratio", "higher", "cluster.slot_us", "ClusterStats.RemoteFraction()"),

		l("telemetry.traced_slot_us", "us", "lower", grantRTT, "sequential slot with Registry + DecisionTracer attached"),
		l("telemetry.recorded_slot_us", "us", "lower", grantRTT, "sequential slot with a FlightRecorder attached, as the grant service runs it"),
		l("telemetry.overhead_share", "ratio", "lower", grantRTT, "recorded_slot_us / untraced seq slot - 1"),
		l("metrics.observe_ns", "ns", "lower", grantRTT, "one DurationHistogram.Observe"),

		l("sim.mallocs_per_run", "count", "lower", "sim.run_ms", "runtime mallocs per simulator lifecycle"),
		l("sim.mallocs_per_pass", "count", "lower", "sim.run_ms", "runtime mallocs per paper-sweep pass"),
		l("sim.bytes_per_pass", "B", "lower", "sim.run_ms", "bytes allocated per paper-sweep pass"),
	}
	for _, id := range sweepIDs {
		m = append(m, l("sim."+id+"_s", "s", "lower", "sim.run_ms", "wdm.RunExperiment("+id+"), full mode, one pass"))
	}
	m = append(m,
		l("grant.stage.ingest_us", "us", "lower", grantRTT, "wdm_grant_stage_seconds{stage=ingest} mean"),
		l("grant.stage.admission_us", "us", "lower", "grant.rtt256_p50_us", "stage admission mean"),
		l("grant.stage.queue_wait_us", "us", "lower", "grant.rtt256_p50_us", "stage queue_wait mean"),
		l("grant.stage.round_batch_us", "us", "lower", "grant.rtt256_p50_us", "stage round_batch mean"),
		l("grant.stage.engine_schedule_us", "us", "lower", grantRTT, "stage engine_schedule mean"),
		l("grant.stage.egress_write_us", "us", "lower", grantRTT, "stage egress_write mean"),
		l("grant.rounds_per_frame", "count", "lower", "grant.rtt256_p50_us", "scheduling rounds per 256-request frame"),
		l("grant.reqs_per_round", "count", "higher", "grant.rtt256_p50_us", "requests settled per round, 256-request frames"),
		l("grant.client.submit_us", "us", "lower", "grant.rtt1_p50_us", "Client.Submit (encode + write syscall), 1-request frames"),
		l("grant.client.recv_wait_us", "us", "lower", "grant.rtt1_p50_us", "Submit return to verdict decoded, 1-request frames"),
		l("grant.wire.bytes_per_req", "B", "lower", "grant.rtt256_p50_us", "service rx + tx bytes per request, 256-request frames"),
		l("grant.granted_share", "ratio", "higher", "none", "granted / submitted, closed loop"),
		l("grant.rtt1_p99_us", "us", "lower", "none", "p99 of 1-request round trips (0 if fewer than 10 samples beyond)"),
		l("grant.rtt256_p99_us", "us", "lower", "none", "p99 of 256-request round trips"),
		l("grant.pipelined_rps", "1/s", "higher", "none", "8 frames x 64 requests in flight; diagnostic, swings 2-3x on a shared VM"),
		l("grant.allocs_per_req", "count", "lower", grantRTT, "process mallocs per request, 256-request frames"),
	)
	for _, r := range openRates {
		p := "grant.open." + r.Tag
		doc := fmt.Sprintf("open loop, Poisson %.0f req/s: ", r.Rate)
		m = append(m,
			l(p+".p50_us", "us", "lower", "none", doc+"verdict latency from the due time, p50"),
			l(p+".p99_us", "us", "lower", "none", doc+"p99"),
			l(p+".late_p99_us", "us", "lower", "none", doc+"how late the generator sent, p99"),
			l(p+".retry_share", "ratio", "lower", "none", doc+"RETRY verdicts / requests"),
			l(p+".reqs_per_frame", "count", "lower", "none", doc+"requests per submit frame"),
		)
	}
	m = append(m,
		l("grant.open.queue_wait_us", "us", "lower", "none", "stage queue_wait mean over the ladder"),
		l("grant.open.queue_depth_max", "count", "lower", "peak_rss_mb", "largest wdm_grant_queue_depth seen at the reader's sampling points"),

		l("seq.allocs_per_slot", "count", "lower", "seq.slot_us", "process mallocs per slot in the timed region; 0 today"),
		l("pool.allocs_per_slot", "count", "lower", "pool.slot_us", "same, worker pool"),
		l("cluster.allocs_per_slot", "count", "lower", "cluster.slot_us", "same, cluster (controller and nodes share the process)"),
		l("fast.allocs_per_slot", "count", "lower", "fast.slot_us", "same, fast schedulers"),
		l("fail_share", "ratio", "lower", "none", "failed / attempted operations of the traced run; must be 0"),

		l("trace.overhead_share", "ratio", "lower", "none", "probed + span-recorded seq slot / untraced seq slot - 1"),
		l("trace.spans", "count", "higher", "none", "spans kept in memory and written to the trace file"),
		l("bench.block_iqr_share", "ratio", "lower", "none", "largest IQR/median of block means among the timed configurations"),
		l("bench.steal_share", "ratio", "lower", "none", "steal / total CPU time over the run (/proc/stat)"),
	)
	return m
}

// workloadDef is one input set: a switch shape and the traffic offered to
// it. Every workload runs every engine, the simulator lifecycle and the
// grant service on that input.
type workloadDef struct {
	Name string
	Why  string

	N, K, E, F int     // N fibers, k wavelengths, circular reach (e, f)
	Load       float64 // Bernoulli arrival probability per input channel
	Band       int     // > 0: HotBand on this many wavelengths, all to port 0
	HoldMean   float64 // geometric holding time; <= 1 means 1-slot packets
	Window     int     // pre-generated slots; a multiple of Block
	Block      int     // slots per timing block
	SimSlots   int     // slots of one simulator lifecycle
}

var workloads = []workloadDef{
	{Name: "uniform16",
		Why: "N=16 k=16 d=3, Bernoulli 0.9, 1-slot packets: orchestration-dominated slots, so barrier, wake-up, RPC and per-packet bookkeeping changes show here and kernel changes mostly do not",
		N:   16, K: 16, E: 1, F: 1, Load: 0.9, Window: 1024, Block: 8, SimSlots: 4},
	{Name: "hotband256",
		Why: "N=8 k=256 d=41, all arrivals on 8 wavelengths to port 0: kernel-dominated and sparse (7 of 8 ports idle), isolates core and the idle-port fast path",
		N:   8, K: 256, E: 20, F: 20, Load: 0.9, Band: 8, Window: 1024, Block: 4, SimSlots: 2},
	{Name: "dense256",
		Why: "N=8 k=256 d=41, Bernoulli 0.9, geometric holding mean 2: every wavelength requested, occupancy live, the one shape where the pool can win; kernel changes tuned to sparse vectors show their cost here",
		N:   8, K: 256, E: 20, F: 20, Load: 0.9, HoldMean: 2, Window: 256, Block: 1, SimSlots: 1},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// manifest renders BENCHMARK.json from the catalogue, so the file and the
// program cannot name different metrics.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}
