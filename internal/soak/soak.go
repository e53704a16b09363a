// Package soak is the long-run chaos harness behind cmd/wdmsoak and the
// deterministic replay engine behind cmd/wdmreplay: it composes any
// workload generator with Markov channel/converter faults and cluster
// transport faults, drives every requested engine (sequential,
// distributed, cluster) in lockstep on identical arrivals, and
// continuously checks the invariants the engines guarantee —
// conservation, grant-ledger reconciliation, cross-engine snapshot
// equivalence, and span containment/attribution.
//
// Every engine carries an always-on telemetry.FlightRecorder; on a
// violation, a recovered panic, or an asynchronous RequestDump (SIGQUIT),
// the harness dumps a self-contained incident bundle — run config,
// incident, recorder rings as JSONL, nearest pre-violation snapshot,
// span dumps, node metric scrapes — that Replay can re-run
// deterministically and Verify can assert reproduces the original
// violation.
package soak

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"wdmsched/internal/analysis"
	"wdmsched/internal/cluster"
	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/spancheck"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// Config is the full effective run configuration, embedded verbatim in
// incident reports and bundles so a failure is reproducible from the
// artifact alone.
type Config struct {
	Engines   []string      `json:"engines"`
	Workload  string        `json:"workload"`
	N         int           `json:"n"`
	K         int           `json:"k"`
	Kind      string        `json:"kind"`
	D         int           `json:"d"`
	Scheduler string        `json:"scheduler"`
	Load      float64       `json:"load"`
	Alpha     float64       `json:"alpha"`
	Zipf      float64       `json:"zipf"`
	Users     int           `json:"users"`
	Diurnal   int           `json:"diurnal_period"`
	Floor     float64       `json:"diurnal_floor"`
	Hold      float64       `json:"hold"`
	BulkUnits int           `json:"bulk_units"`
	Trace     string        `json:"trace,omitempty"`
	Slots     int64         `json:"slots"`
	Time      time.Duration `json:"time_ns"`
	Resync    int64         `json:"resync"`
	Seed      uint64        `json:"seed"`
	Nodes     int           `json:"nodes"`

	ConvFail   float64       `json:"conv_fail"`
	ConvRepair float64       `json:"conv_repair"`
	Dark       float64       `json:"chan_dark"`
	Restore    float64       `json:"chan_restore"`
	PortDown   float64       `json:"port_down"`
	PortUp     float64       `json:"port_up"`
	TDrop      float64       `json:"transport_drop"`
	TDup       float64       `json:"transport_dup"`
	TDelay     float64       `json:"transport_delay"`
	RPCTimeout time.Duration `json:"rpc_timeout_ns"`

	ChaosBug string `json:"chaosbug,omitempty"`
}

// Validate rejects configurations the harness cannot run. The returned
// errors are user errors (exit 2 territory), not runtime failures.
func (cfg *Config) Validate() error {
	for _, e := range cfg.Engines {
		switch e {
		case "sequential", "distributed", "cluster":
		default:
			return fmt.Errorf("unknown engine %q (want sequential, distributed or cluster)", e)
		}
	}
	if len(cfg.Engines) == 0 {
		return fmt.Errorf("no engines selected")
	}
	if cfg.Slots <= 0 && cfg.Time <= 0 && cfg.Workload != "bulk" {
		return fmt.Errorf("need a budget: -slots, -time, or -workload bulk (which ends when the demand drains)")
	}
	if cfg.Resync <= 0 {
		return fmt.Errorf("-resync must be positive")
	}
	switch cfg.ChaosBug {
	case "", "ledger":
	case "equivalence":
		if len(cfg.Engines) < 2 {
			return fmt.Errorf("-chaosbug equivalence needs at least two engines")
		}
	default:
		return fmt.Errorf("unknown -chaosbug %q (want ledger or equivalence)", cfg.ChaosBug)
	}
	if cfg.Workload == "trace" && cfg.Trace == "" {
		return fmt.Errorf("-workload trace needs -trace")
	}
	return nil
}

// Incident is the JSON report written on the first invariant violation.
type Incident struct {
	Invariant string `json:"invariant"`
	Engine    string `json:"engine,omitempty"`
	Slot      int64  `json:"slot"`
	Detail    string `json:"detail"`
	Wall      string `json:"wall_clock"`
	Config    Config `json:"config"`
}

// Options are the harness's runtime knobs that do not affect the
// simulated run (and therefore are not part of Config or bundles).
type Options struct {
	Stdout io.Writer
	Stderr io.Writer
	// Report is the incident report path; "" skips the report file.
	Report string
	// SpanDir, when set, receives cluster span dumps.
	SpanDir string
	// BundlePath is where incident bundles are dumped on a violation or
	// recovered panic; "" disables bundle dumps. Asynchronous
	// (RequestDump) bundles go next to it with a -sigquit-<slot> suffix.
	BundlePath string
	// Progress is the slot period of progress lines (0 = 25 resyncs).
	Progress int64
	// Tool overrides the producing-tool name stamped into bundle
	// manifests (default "wdmsoak").
	Tool string
	// Quiet suppresses the config and progress output lines (used by
	// replay, whose caller prints its own framing).
	Quiet bool
}

// engine is one lockstep participant: a switch plus its own identically
// seeded generator and fault chain, the grant ledger the harness
// reconciles against the switch's own statistics, and the flight
// recorder taping it all.
type engine struct {
	name     string
	sw       *interconnect.Switch
	gen      traffic.Generator
	bulk     *traffic.BulkTransfer
	rec      *telemetry.FlightRecorder
	traceErr func() error // ctrace decode-error probe, nil otherwise

	buf      []traffic.Packet
	grants   []interconnect.SlotGrant
	seen     int64 // grants observed (pre-chaosbug)
	ledger   int64 // grants admitted to the ledger
	perInput []int64
	snap     interconnect.Snapshot
	skipMod  int64 // chaosbug ledger: drop every skipMod-th grant

	ctrl      *cluster.Controller
	nodes     []*cluster.Node
	nodeRegs  []*telemetry.Registry
	nhScratch []cluster.NodeHealth
	closers   []func() error
}

// Harness is a configured lockstep soak run.
type Harness struct {
	cfg     Config
	opt     Options
	engines []*engine
	start   time.Time
	inc     *Incident   // first violation, for Replay/Verify
	pending atomic.Bool // asynchronous bundle-dump request (SIGQUIT)
}

// New builds the harness's engines. Config errors (unknown workload,
// incompatible flags) come back as errors; the caller maps them to usage
// exits. The harness must be Closed.
func New(cfg Config, opt Options) (*Harness, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opt.Stdout == nil {
		opt.Stdout = io.Discard
	}
	if opt.Stderr == nil {
		opt.Stderr = io.Discard
	}
	if opt.Tool == "" {
		opt.Tool = "wdmsoak"
	}
	h := &Harness{cfg: cfg, opt: opt}
	for i, name := range cfg.Engines {
		e, err := h.buildEngine(i, name)
		if err != nil {
			h.Close()
			return nil, fmt.Errorf("building %s engine: %w", name, err)
		}
		h.engines = append(h.engines, e)
	}
	if cfg.ChaosBug == "ledger" {
		h.engines[0].skipMod = 997
	}
	return h, nil
}

// Close finalizes every switch and tears down cluster nodes/controllers.
func (h *Harness) Close() {
	for _, e := range h.engines {
		if e.sw != nil {
			e.sw.Finalize()
		}
		for _, c := range e.closers {
			c()
		}
	}
	h.engines = nil
}

// Incident returns the first invariant violation the run hit, or nil
// after a clean run. Valid after Run returns.
func (h *Harness) Incident() *Incident { return h.inc }

// RequestDump asks the slot loop to dump an incident bundle at the next
// slot boundary without stopping the run — the SIGQUIT path. Safe from
// any goroutine.
func (h *Harness) RequestDump() { h.pending.Store(true) }

func (h *Harness) buildEngine(index int, name string) (*engine, error) {
	cfg := h.cfg
	e := &engine{name: name, perInput: make([]int64, cfg.N)}

	conv, err := wavelength.NewNamed(cfg.Kind, cfg.K, cfg.D)
	if err != nil {
		return nil, err
	}
	// The arrival seed is identical across engines — byte-identical
	// workloads are what makes the equivalence invariant exact. The
	// equivalence chaosbug perturbs the last engine's seed to prove the
	// checker notices.
	genSeed := cfg.Seed
	if cfg.ChaosBug == "equivalence" && index == len(cfg.Engines)-1 {
		genSeed++
	}
	if err := h.attachWorkload(e, genSeed); err != nil {
		return nil, err
	}

	// Every engine gets its own injector from the same seed: identical
	// fault histories, so degraded-mode statistics must agree too.
	var faults fault.Injector
	if cfg.ConvFail > 0 || cfg.Dark > 0 || cfg.PortDown > 0 {
		faults, err = fault.NewMarkov(fault.MarkovConfig{
			N: cfg.N, K: cfg.K, Seed: cfg.Seed + 101,
			ConverterFail: cfg.ConvFail, ConverterRepair: cfg.ConvRepair,
			ChannelDark: cfg.Dark, ChannelRestore: cfg.Restore,
			PortDown: cfg.PortDown, PortUp: cfg.PortUp,
		})
		if err != nil {
			return nil, err
		}
	}

	// The always-on black box: snapshot cadence = the resync interval, so
	// the recorded counter snapshots line up exactly with the invariant
	// checkpoints and the nearest pre-violation snapshot is the last
	// clean resync.
	e.rec = telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{
		Ports: cfg.N, SnapshotEvery: cfg.Resync,
	})

	swCfg := interconnect.Config{
		N: cfg.N, Conv: conv, Scheduler: cfg.Scheduler,
		Seed: cfg.Seed, Faults: faults, Recorder: e.rec,
	}
	switch name {
	case "sequential":
	case "distributed":
		swCfg.Distributed = true
	case "cluster":
		ctrl, err := h.startCluster(e, conv)
		if err != nil {
			return nil, err
		}
		swCfg.Remote = ctrl
	}
	sw, err := interconnect.New(swCfg)
	if err != nil {
		return nil, err
	}
	e.sw = sw
	return e, nil
}

// startCluster brings up in-process loopback worker nodes (each with its
// own wdm_node_* registry, scraped into incident bundles) and a traced
// controller with transport fault injection on every link.
func (h *Harness) startCluster(e *engine, conv wavelength.Conversion) (*cluster.Controller, error) {
	cfg := h.cfg
	nodes, addrs, err := cluster.StartLoopback(cfg.Nodes, func() cluster.NodeConfig {
		reg := telemetry.NewRegistry()
		e.nodeRegs = append(e.nodeRegs, reg)
		return cluster.NodeConfig{Telemetry: reg, Spans: telemetry.NewSpanTracer(1, 1<<12)}
	})
	if err != nil {
		return nil, err
	}
	e.nodes = nodes
	for _, node := range nodes {
		e.closers = append(e.closers, node.Close)
	}
	var tf *fault.TransportFaults
	if cfg.TDrop > 0 || cfg.TDup > 0 || cfg.TDelay > 0 {
		tf, err = fault.NewTransportFaults(fault.TransportConfig{
			Seed: cfg.Seed + 202, Drop: cfg.TDrop, Duplicate: cfg.TDup, Delay: cfg.TDelay,
		})
		if err != nil {
			return nil, err
		}
	}
	ctrl, err := cluster.NewController(cluster.ControllerConfig{
		Addrs: addrs, N: cfg.N, Conv: conv, Scheduler: cfg.Scheduler,
		Seed: cfg.Seed, DialTimeout: 10 * time.Second, RPCTimeout: cfg.RPCTimeout,
		Faults: tf, Spans: telemetry.NewSpanTracer(1, 1<<12),
	})
	if err != nil {
		return nil, err
	}
	e.ctrl = ctrl
	e.closers = append(e.closers, ctrl.Close)
	return ctrl, nil
}

// Workloads lists the Config.Workload values the harness accepts; wdmsoak
// builds its -workload help from it.
var Workloads = []string{"bernoulli", "hotspot", "bursty", "heavytail", "selfsimilar", "bulk", "trace"}

func (h *Harness) attachWorkload(e *engine, seed uint64) error {
	cfg := h.cfg
	tc := traffic.Config{N: cfg.N, K: cfg.K, Seed: seed, Hold: traffic.HoldingTime{Mean: cfg.Hold}}
	var gen traffic.Generator
	var err error
	switch cfg.Workload {
	case "bernoulli":
		gen, err = traffic.NewBernoulli(tc, cfg.Load)
	case "hotspot":
		gen, err = traffic.NewHotspot(tc, cfg.Load, 0, 0.5)
	case "bursty":
		meanOn := 8.0
		gen, err = traffic.NewBursty(tc, meanOn, meanOn*(1-cfg.Load)/cfg.Load)
	case "heavytail":
		gen, err = traffic.NewHeavyTail(tc, cfg.Load, cfg.Alpha, cfg.Zipf)
	case "selfsimilar":
		u := cfg.Users
		if u == 0 {
			u = 12 * cfg.K
		}
		gen, err = traffic.NewSelfSimilar(tc, cfg.Load, cfg.Alpha, u)
	case "bulk":
		demand := traffic.RandomDemand(cfg.N, cfg.BulkUnits, cfg.Seed)
		e.bulk, err = traffic.NewBulkTransfer(tc, demand)
		gen = e.bulk
	case "trace":
		f, err := os.Open(cfg.Trace)
		if err != nil {
			return err
		}
		rd, err := traffic.OpenTraceReader(f)
		if err != nil {
			f.Close()
			return err
		}
		if rd.N() != cfg.N || rd.K() != cfg.K {
			f.Close()
			return fmt.Errorf("trace shape N=%d k=%d disagrees with -n %d -k %d", rd.N(), rd.K(), cfg.N, cfg.K)
		}
		e.traceErr = rd.Err
		e.closers = append(e.closers, rd.Close, f.Close)
		gen = rd.Generator()
	default:
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return err
	}
	if cfg.Diurnal > 0 {
		if cfg.Workload == "bulk" {
			return fmt.Errorf("-diurnal does not compose with the closed-loop bulk workload")
		}
		gen, err = traffic.WithDiurnal(gen, cfg.Diurnal, cfg.Floor, seed+1)
		if err != nil {
			return err
		}
	}
	e.gen = gen
	return nil
}

// Run drives the lockstep loop to its budget or first violation: exit 0
// clean, 1 on a violation (or a recovered panic). Panics escaping an
// engine's slot processing are recovered here — at the slot-loop boundary
// — dumped as a "panic" incident bundle, and reported like any other
// violation rather than crashing the process with the evidence unsaved.
func (h *Harness) Run() (code int) {
	cfg := h.cfg
	h.start = time.Now()
	progressEvery := h.opt.Progress
	if progressEvery <= 0 {
		progressEvery = 25 * cfg.Resync
	}
	if !h.opt.Quiet {
		if raw, err := json.Marshal(cfg); err == nil {
			fmt.Fprintf(h.opt.Stdout, "config         %s\n", raw)
		}
		fmt.Fprintf(h.opt.Stdout, "soak           %s on %s, N=%d k=%d %s/d=%d, seed %d\n",
			h.engines[0].gen.Name(), strings.Join(cfg.Engines, "+"), cfg.N, cfg.K, cfg.Kind, cfg.D, cfg.Seed)
	}

	var slot int64
	defer func() {
		if r := recover(); r != nil {
			code = h.violation(&Incident{Invariant: "panic", Slot: slot,
				Detail: fmt.Sprintf("recovered at slot-loop boundary: %v", r)})
		}
	}()

	stop := ""
	for stop == "" {
		switch {
		case cfg.Slots > 0 && slot >= cfg.Slots:
			stop = "slot budget"
		case cfg.Time > 0 && slot%256 == 0 && time.Since(h.start) >= cfg.Time:
			stop = "time budget"
		}
		if stop != "" {
			break
		}
		for _, e := range h.engines {
			e.buf = e.gen.Generate(int(slot), e.buf[:0])
			if err := e.sw.RunSlot(e.buf); err != nil {
				return h.violation(&Incident{Invariant: "runtime", Engine: e.name, Slot: slot, Detail: err.Error()})
			}
			e.grants = e.sw.LastGrants(e.grants[:0])
			for _, g := range e.grants {
				e.seen++
				if e.skipMod > 0 && e.seen%e.skipMod == 0 {
					continue // chaosbug ledger: this grant vanishes from the books
				}
				e.ledger++
				e.perInput[g.InputFiber]++
				if e.bulk != nil {
					if err := e.bulk.Deliver(g.InputFiber, g.OutputFiber); err != nil {
						return h.violation(&Incident{Invariant: "bulk-delivery", Engine: e.name, Slot: slot, Detail: err.Error()})
					}
				}
			}
		}
		slot++
		if h.pending.Swap(false) {
			// Asynchronous dump request (SIGQUIT): all engines sit at a
			// slot boundary here, so the single-writer rings are safe to
			// read. The run continues afterwards.
			h.dumpAsync(slot)
		}
		if slot%cfg.Resync == 0 {
			h.sampleNodes(slot)
			if inc := h.checkInvariants(slot); inc != nil {
				return h.violation(inc)
			}
			if !h.opt.Quiet && slot%progressEvery == 0 {
				e := h.engines[0]
				fmt.Fprintf(h.opt.Stdout, "slot %-12d offered %-12d granted %-12d lost-to-faults %d\n",
					slot, e.snap.Offered, e.snap.Granted, e.snap.FaultLostGrants)
			}
		}
		if h.engines[0].bulk != nil {
			done := true
			for _, e := range h.engines {
				if !e.bulk.Done() {
					done = false
					break
				}
			}
			if done {
				stop = "bulk drained"
			}
		}
	}

	h.sampleNodes(slot)
	if inc := h.checkInvariants(slot); inc != nil {
		return h.violation(inc)
	}
	if inc := h.checkSpans(slot); inc != nil {
		return h.violation(inc)
	}
	e := h.engines[0]
	fmt.Fprintf(h.opt.Stdout, "stopped        %s after %d slots in %v\n", stop, slot, time.Since(h.start).Round(time.Millisecond))
	fmt.Fprintf(h.opt.Stdout, "totals         offered %d, granted %d, blocked %d, dropped %d, fault-lost %d, fault-killed %d\n",
		e.snap.Offered, e.snap.Granted, e.snap.InputBlocked, e.snap.OutputDropped,
		e.snap.FaultLostGrants, e.snap.FaultKilled)
	if e.bulk != nil {
		demand := traffic.RandomDemand(cfg.N, cfg.BulkUnits, cfg.Seed)
		lb, _ := analysis.OpenShopMakespanLB(demand, cfg.K)
		fmt.Fprintf(h.opt.Stdout, "makespan       %d slots for %d units (open-shop lower bound %d)\n",
			slot, e.bulk.Delivered(), lb)
	}
	fmt.Fprintf(h.opt.Stdout, "soak           ok: %d invariant checks, 0 violations\n", slot/cfg.Resync+1)
	return 0
}

// sampleNodes records one NodeSample per cluster link into the cluster
// engine's flight recorder: per-node link health plus the controller-wide
// RPC aggregates (the cluster runtime aggregates transport counters
// across links, so those are controller totals).
func (h *Harness) sampleNodes(slot int64) {
	for _, e := range h.engines {
		if e.ctrl == nil {
			continue
		}
		st := e.ctrl.ClusterStats()
		p99 := int64(st.RPCLatency.Quantile(0.99))
		e.nhScratch = e.ctrl.NodeHealth(e.nhScratch[:0])
		for _, nh := range e.nhScratch {
			e.rec.RecordNodeSample(telemetry.NodeSample{
				Slot: slot, Node: int32(nh.Shard), Healthy: nh.Healthy, Addr: nh.Addr,
				RemoteItems:   st.RemoteItems.Value(),
				FallbackItems: st.LocalFallbackItems.Value(),
				Retries:       st.Retries.Value(),
				Reconnects:    st.Reconnects.Value(),
				BytesSent:     st.BytesSent.Value(),
				BytesReceived: st.BytesReceived.Value(),
				RPCP99NS:      p99,
			})
		}
	}
}

// checkInvariants snapshots every engine and enforces conservation, the
// grant ledger, and cross-engine equivalence. It returns the first
// violation found, nil when all hold.
func (h *Harness) checkInvariants(slot int64) *Incident {
	for _, e := range h.engines {
		if e.traceErr != nil {
			if err := e.traceErr(); err != nil {
				return &Incident{Invariant: "trace-decode", Engine: e.name, Slot: slot, Detail: err.Error()}
			}
		}
		e.sw.Snapshot(&e.snap)
		if msg := e.snap.Conserved(); msg != "" {
			return &Incident{Invariant: "conservation", Engine: e.name, Slot: slot, Detail: msg}
		}
		if e.ledger != e.snap.Granted {
			return &Incident{Invariant: "ledger", Engine: e.name, Slot: slot,
				Detail: fmt.Sprintf("grant ledger %d != stats granted %d", e.ledger, e.snap.Granted)}
		}
		for f, g := range e.perInput {
			if g != e.snap.PerInput[f] {
				return &Incident{Invariant: "ledger", Engine: e.name, Slot: slot,
					Detail: fmt.Sprintf("per-input[%d] ledger %d != stats %d", f, g, e.snap.PerInput[f])}
			}
		}
		if e.bulk != nil && e.bulk.Delivered() != e.snap.Granted {
			return &Incident{Invariant: "bulk-delivery", Engine: e.name, Slot: slot,
				Detail: fmt.Sprintf("delivered %d != granted %d", e.bulk.Delivered(), e.snap.Granted)}
		}
	}
	ref := h.engines[0]
	for _, e := range h.engines[1:] {
		if msg := ref.snap.Diff(&e.snap); msg != "" {
			return &Incident{Invariant: "equivalence", Engine: ref.name + " vs " + e.name, Slot: slot, Detail: msg}
		}
	}
	return nil
}

// checkSpans dumps and verifies the cluster engine's cross-process spans:
// write the dumps (to SpanDir when set), trim every dump to the slot
// window all span rings still retain, and run the shared wdmtrace -check
// logic on the merged view.
func (h *Harness) checkSpans(slot int64) *Incident {
	var cl *engine
	for _, e := range h.engines {
		if e.ctrl != nil {
			cl = e
		}
	}
	if cl == nil {
		return nil
	}
	dumpOne := func(name string, write func(io.Writer) error) (*spancheck.Dump, error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return nil, err
		}
		if h.opt.SpanDir != "" {
			if err := os.WriteFile(filepath.Join(h.opt.SpanDir, name+".spans"), buf.Bytes(), 0o644); err != nil {
				return nil, err
			}
		}
		return spancheck.ReadDump(name, &buf)
	}
	ctrl, err := dumpOne("ctrl", cl.ctrl.WriteSpans)
	if err != nil {
		return &Incident{Invariant: "span-dump", Engine: cl.name, Slot: slot, Detail: err.Error()}
	}
	var nodes []*spancheck.Dump
	for i, node := range cl.nodes {
		d, err := dumpOne(fmt.Sprintf("node%d", i), node.WriteSpans)
		if err != nil {
			return &Incident{Invariant: "span-dump", Engine: cl.name, Slot: slot, Detail: err.Error()}
		}
		nodes = append(nodes, d)
	}
	trimDumps(append([]*spancheck.Dump{ctrl}, nodes...))
	m, err := spancheck.Merge(ctrl, nodes)
	if err != nil {
		return &Incident{Invariant: "span-merge", Engine: cl.name, Slot: slot, Detail: err.Error()}
	}
	rep, err := m.CheckContainment()
	if err != nil {
		return &Incident{Invariant: "span-containment", Engine: cl.name, Slot: slot, Detail: err.Error()}
	}
	// Attribution only holds when the controller never stalled in retry
	// backoff or deadline waits — that time is deliberately unattributed,
	// so the invariant is meaningful only on a fault-free transport.
	if h.cfg.TDrop == 0 && h.cfg.TDup == 0 && h.cfg.TDelay == 0 {
		if rep, err = m.CheckAttribution(rep); err != nil {
			return &Incident{Invariant: "span-attribution", Engine: cl.name, Slot: slot, Detail: err.Error()}
		}
		fmt.Fprintf(h.opt.Stdout, "spans          containment %d/%d outside windows, attribution %.1f%% of slot time\n",
			rep.Violations, rep.Checked, 100*rep.AttributionRatio)
	} else {
		fmt.Fprintf(h.opt.Stdout, "spans          containment %d/%d outside windows (attribution skipped: transport faults active)\n",
			rep.Violations, rep.Checked)
	}
	return nil
}

// trimDumps drops every span at or below the newest slot any ring had
// already evicted. The tracers keep a bounded ring per lane and lanes
// carry different span counts per slot, so after a long run each lane's
// retained window starts at a different slot; the containment and
// attribution checks are only meaningful over the window every lane still
// covers in full.
func trimDumps(dumps []*spancheck.Dump) {
	lo := int64(0)
	for _, d := range dumps {
		laneMin := map[int32]int64{}
		for _, sp := range d.Spans {
			if m, ok := laneMin[sp.Lane]; !ok || sp.Slot < m {
				laneMin[sp.Lane] = sp.Slot
			}
		}
		for _, m := range laneMin {
			if m+1 > lo {
				lo = m + 1
			}
		}
	}
	for _, d := range dumps {
		kept := d.Spans[:0]
		for _, sp := range d.Spans {
			if sp.Slot >= lo {
				kept = append(kept, sp)
			}
		}
		d.Spans = kept
	}
}

// violation records the incident, writes the report file and incident
// bundle, dumps cluster spans for the CI artifact when SpanDir is set,
// and prints the failure banner. Always returns 1.
func (h *Harness) violation(inc *Incident) int {
	inc.Wall = time.Since(h.start).String()
	inc.Config = h.cfg
	h.inc = inc
	if h.opt.SpanDir != "" {
		for _, e := range h.engines {
			if e.ctrl == nil {
				continue
			}
			writeSpanFile := func(name string, write func(io.Writer) error) {
				var buf bytes.Buffer
				if write(&buf) == nil {
					os.WriteFile(filepath.Join(h.opt.SpanDir, name+".spans"), buf.Bytes(), 0o644)
				}
			}
			writeSpanFile("ctrl", e.ctrl.WriteSpans)
			for i, node := range e.nodes {
				writeSpanFile(fmt.Sprintf("node%d", i), node.WriteSpans)
			}
		}
	}
	if h.opt.Report != "" {
		raw, err := json.MarshalIndent(inc, "", "  ")
		if err == nil {
			err = os.WriteFile(h.opt.Report, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(h.opt.Stderr, "%s: writing incident report: %v\n", h.opt.Tool, err)
		}
	}
	if h.opt.BundlePath != "" {
		if err := h.DumpBundle(h.opt.BundlePath, "violation", inc.Slot, inc); err != nil {
			fmt.Fprintf(h.opt.Stderr, "%s: dumping incident bundle: %v\n", h.opt.Tool, err)
		} else {
			fmt.Fprintf(h.opt.Stderr, "%s: incident bundle: %s\n", h.opt.Tool, h.opt.BundlePath)
		}
	}
	suffix := ""
	if h.opt.Report != "" {
		suffix = fmt.Sprintf(" (report: %s)", h.opt.Report)
	}
	fmt.Fprintf(h.opt.Stderr, "%s: INVARIANT VIOLATION [%s] engine %s slot %d: %s%s\n",
		h.opt.Tool, inc.Invariant, inc.Engine, inc.Slot, inc.Detail, suffix)
	return 1
}

// dumpAsync writes a requested (SIGQUIT) bundle next to BundlePath with a
// -sigquit-<slot> suffix so it never clobbers a later violation bundle.
func (h *Harness) dumpAsync(slot int64) {
	if h.opt.BundlePath == "" {
		return
	}
	path := suffixPath(h.opt.BundlePath, fmt.Sprintf("-sigquit-%d", slot))
	if err := h.DumpBundle(path, "sigquit", slot, nil); err != nil {
		fmt.Fprintf(h.opt.Stderr, "%s: dumping requested bundle: %v\n", h.opt.Tool, err)
		return
	}
	fmt.Fprintf(h.opt.Stderr, "%s: flight-recorder bundle (run continues): %s\n", h.opt.Tool, path)
}

// suffixPath inserts suffix before the path's extension(s):
// x.tgz → x-sigquit-7.tgz.
func suffixPath(path, suffix string) string {
	base := path
	var ext string
	for {
		e := filepath.Ext(base)
		if e == "" {
			break
		}
		ext = e + ext
		base = strings.TrimSuffix(base, e)
	}
	return base + suffix + ext
}
