// Package wdm is the public API of wdmsched, a from-scratch Go
// implementation of the distributed scheduling algorithms for wavelength
// convertible WDM optical interconnects from Zhang & Yang, "Distributed
// Scheduling Algorithms for Wavelength Convertible WDM Optical
// Interconnects" (IPDPS 2003).
//
// # Model
//
// An N×N WDM optical interconnect carries k wavelength channels per fiber.
// Limited range wavelength converters on the output side can shift an
// incoming wavelength λi into an adjacency interval [i−e, i+f] — circular
// (wrapping mod k) or non-circular (clamped at the band edges) — with
// conversion degree d = e+f+1. Each time slot, the requests destined to one
// output fiber are scheduled independently of all other fibers; the
// scheduler grants the largest contention-free subset, i.e. a maximum
// matching of the request graph.
//
// # Schedulers
//
// NewScheduler (or the concrete constructors) provides:
//
//   - "exact" — dispatches to the right exact algorithm for the model:
//     First Available, O(k), for non-circular conversion (Table 2); Break
//     and First Available, O(dk), for circular conversion (Table 3), run
//     as a word-parallel kernel over packed uint64 state; the trivial
//     scheduler for full range. "fast" is an alias of "exact".
//   - "first-available", "fast-break-first-available", "full-range" —
//     the three schedulers "exact" dispatches to, by their own names
//   - "break-first-available" — the scalar transcription of Table 3: the
//     reference the kernel is held byte-identical to by the differential
//     fuzzers, an order of magnitude slower on overloaded large-k slots
//   - "shortest-edge" / "delta-break(δ)" — O(k) single-break approximation
//     within max{δ−1, d−δ} of optimal (Theorem 3, Corollary 1)
//   - "hopcroft-karp" — the general bipartite matching baseline
//
// # Quick start
//
//	conv, _ := wdm.NewConversion(wdm.Circular, 8, 1, 1) // k=8, d=3
//	sched, _ := wdm.NewScheduler("exact", conv)
//	res := wdm.NewResult(conv.K())
//	sched.Schedule([]int{2, 0, 1, 3, 0, 0, 1, 2}, nil, res)
//	fmt.Println(res.Size) // granted requests
//
// For whole-interconnect simulation see NewSwitch; for regenerating the
// paper's tables and figures see Experiments and RunExperiment (or the
// wdmbench command).
package wdm

import (
	"io"

	"wdmsched/internal/analysis"
	"wdmsched/internal/async"
	"wdmsched/internal/cluster"
	"wdmsched/internal/core"
	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/pathsim"
	"wdmsched/internal/sim"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// Kind selects the shape of wavelength conversion.
type Kind = wavelength.Kind

// Conversion kinds (paper Section II-A).
const (
	// Circular conversion wraps adjacency sets around the wavelength
	// ring (Fig. 2(a)).
	Circular = wavelength.Circular
	// NonCircular conversion clamps adjacency sets at the band edges
	// (Fig. 2(b)).
	NonCircular = wavelength.NonCircular
	// Full range conversion reaches every wavelength (d = k).
	Full = wavelength.Full
)

// Conversion is an immutable wavelength conversion model: k wavelengths,
// minus-side reach e and plus-side reach f (degree d = e+f+1).
type Conversion = wavelength.Conversion

// Wavelength is a wavelength channel index in [0, k).
type Wavelength = wavelength.Wavelength

// NewConversion builds a conversion model; see wavelength reach semantics
// in the package documentation.
func NewConversion(kind Kind, k, e, f int) (Conversion, error) {
	return wavelength.New(kind, k, e, f)
}

// NewSymmetricConversion builds a conversion with odd degree d and
// e = f = (d−1)/2, the common case in the paper's examples.
func NewSymmetricConversion(kind Kind, k, d int) (Conversion, error) {
	return wavelength.NewSymmetric(kind, k, d)
}

// ParseKind parses "circular", "noncircular" or "full".
func ParseKind(s string) (Kind, error) { return wavelength.ParseKind(s) }

// Scheduler resolves one output fiber's contention each slot; see the
// package documentation for the available algorithms. Schedulers reuse
// internal scratch and are not safe for concurrent use — deploy one per
// output fiber, as the paper's distributed design intends.
type Scheduler = core.Scheduler

// Result is one slot's scheduling decision.
type Result = core.Result

// Unassigned marks an output channel with no granted request.
const Unassigned = core.Unassigned

// NewResult allocates a Result for k wavelengths.
func NewResult(k int) *Result { return core.NewResult(k) }

// NewScheduler builds a scheduler by name; see the package documentation
// for the recognized names.
func NewScheduler(name string, conv Conversion) (Scheduler, error) {
	return core.NewByName(name, conv)
}

// SchedulerNames lists every name NewScheduler accepts; the last entry is
// the "delta-break(<δ>)" pattern, every other one literal.
func SchedulerNames() []string { return core.SchedulerNames() }

// SchedulerUsage is the -scheduler help text the command-line tools share:
// what the flag selects, then SchedulerNames and which of them are aliases.
func SchedulerUsage(what string) string { return core.SchedulerUsage(what) }

// NewExactScheduler returns the paper's exact algorithm for the model:
// First Available, Break and First Available (as the word-parallel kernel)
// or FullRange.
func NewExactScheduler(conv Conversion) (Scheduler, error) { return core.NewExact(conv) }

// ValidateResult checks that res is a feasible assignment for the request
// vector and occupancy under conv.
func ValidateResult(conv Conversion, count []int, occupied []bool, res *Result) error {
	return core.Validate(conv, count, occupied, res)
}

// ChannelState is one output channel's fault condition for masked
// scheduling (Scheduler.ScheduleMasked).
type ChannelState = core.ChannelState

// Channel fault states.
const (
	// ChannelHealthy channels behave normally.
	ChannelHealthy = core.Healthy
	// ChannelConverterFailed channels carry only their own wavelength:
	// the converter is broken, the laser is not.
	ChannelConverterFailed = core.ConverterFailed
	// ChannelDark channels are out of service entirely.
	ChannelDark = core.Dark
)

// ChannelMask is a per-channel fault mask (len k); nil means all healthy.
type ChannelMask = core.ChannelMask

// ValidateResultMasked additionally checks the fault-mask rules: nothing on
// dark channels, only straight-through grants on converter-failed channels.
func ValidateResultMasked(conv Conversion, count []int, occupied []bool, mask ChannelMask, res *Result) error {
	return core.ValidateMasked(conv, count, occupied, mask, res)
}

// Packet is one slot-aligned connection request; see the traffic model in
// the SwitchConfig documentation.
type Packet = traffic.Packet

// Generator produces per-slot packet arrivals.
type Generator = traffic.Generator

// TrafficConfig describes the interconnect shape a generator fills and the
// holding-time model.
type TrafficConfig = traffic.Config

// HoldingTime models connection durations (1 slot for packet switching,
// longer for burst switching).
type HoldingTime = traffic.HoldingTime

// Trace is a recorded workload for replay.
type Trace = traffic.Trace

// NewBernoulliTraffic builds uniform independent arrivals at the given
// per-channel load.
func NewBernoulliTraffic(cfg TrafficConfig, load float64) (Generator, error) {
	return traffic.NewBernoulli(cfg, load)
}

// NewHotspotTraffic directs a fraction of the traffic at one hot output
// fiber.
func NewHotspotTraffic(cfg TrafficConfig, load float64, hot int, fraction float64) (Generator, error) {
	return traffic.NewHotspot(cfg, load, hot, fraction)
}

// NewHotBandTraffic concentrates all arrivals on the first band wavelengths
// and one hot output fiber — the contended workload of the word-parallel
// kernel benchmarks.
func NewHotBandTraffic(cfg TrafficConfig, load float64, hot, band int) (Generator, error) {
	return traffic.NewHotBand(cfg, load, hot, band)
}

// NewBurstyTraffic builds on–off Markov traffic with the given mean burst
// and idle lengths.
func NewBurstyTraffic(cfg TrafficConfig, meanOn, meanOff float64) (Generator, error) {
	return traffic.NewBursty(cfg, meanOn, meanOff)
}

// NewHeavyTailTraffic builds heavy-tailed on–off traffic: Pareto(alpha)
// burst lengths (infinite variance for alpha < 2) and zipf-skewed
// destinations (exponent zipf; 0 = uniform, rank 0 = fiber 0 hottest), at
// the given long-run per-channel load.
func NewHeavyTailTraffic(cfg TrafficConfig, load, alpha, zipf float64) (Generator, error) {
	return traffic.NewHeavyTail(cfg, load, alpha, zipf)
}

// NewSelfSimilarTraffic builds self-similar traffic by superposing many
// heavy-tailed on/off users per input fiber (users ≥ k across the fiber),
// the Willinger–Taqqu construction: block-aggregated counts stay bursty at
// every time scale instead of smoothing out like Bernoulli.
func NewSelfSimilarTraffic(cfg TrafficConfig, load, alpha float64, users int) (Generator, error) {
	return traffic.NewSelfSimilar(cfg, load, alpha, users)
}

// NewDiurnalTraffic modulates any generator with a raised-cosine load
// curve of the given period in slots: offered load swings between
// floor×peak and peak, the daily rush-hour shape soak runs sweep through.
func NewDiurnalTraffic(gen Generator, period int, floor float64, seed uint64) (Generator, error) {
	return traffic.WithDiurnal(gen, period, floor, seed)
}

// BulkTransfer is the open-shop workload: a fixed N×N demand matrix of
// transfer units drained in closed loop — each slot it offers the still-
// pending units (at most k per input) and Deliver feeds grants back. The
// figure of merit is the makespan; compare with OpenShopMakespanLB.
type BulkTransfer = traffic.BulkTransfer

// NewBulkTransfer validates the demand matrix and builds the workload.
func NewBulkTransfer(cfg TrafficConfig, demand [][]int) (*BulkTransfer, error) {
	return traffic.NewBulkTransfer(cfg, demand)
}

// RandomBulkDemand spreads total transfer units uniformly at random over
// an n×n demand matrix.
func RandomBulkDemand(n, total int, seed uint64) [][]int {
	return traffic.RandomDemand(n, total, seed)
}

// CompressedTraceWriter streams a workload trace in the compressed ctrace
// format: slot-by-slot in constant memory, so soak-scale traces (multiple
// gigaslots) never materialize in RAM. Close emits the footer that makes
// truncation detectable.
type CompressedTraceWriter = traffic.TraceWriter

// CompressedTraceReader streams a compressed trace back; its Generator
// method adapts it for replay through Switch.Run.
type CompressedTraceReader = traffic.TraceReader

// NewCompressedTraceWriter starts a compressed trace with the given shape.
func NewCompressedTraceWriter(w io.Writer, n, k int) (*CompressedTraceWriter, error) {
	return traffic.NewTraceWriter(w, n, k)
}

// OpenCompressedTrace validates the header and positions the reader at
// the first slot.
func OpenCompressedTrace(r io.Reader) (*CompressedTraceReader, error) {
	return traffic.OpenTraceReader(r)
}

// ReadCompressedTrace loads a whole compressed trace into memory — the
// bridge back to the in-memory Trace for small traces.
func ReadCompressedTrace(r io.Reader) (*Trace, error) {
	return traffic.ReadCompressedTrace(r)
}

// NewPrioritizedTraffic wraps a generator with QoS class marking:
// classProbs[c] is the probability a packet belongs to class c (0 =
// highest). Pair with SwitchConfig.PriorityClasses.
func NewPrioritizedTraffic(gen Generator, classProbs []float64, seed uint64) (Generator, error) {
	return traffic.WithPriorities(gen, classProbs, seed)
}

// RecordTrace captures a generator's arrivals for replay.
func RecordTrace(gen Generator, cfg TrafficConfig, slots int) (*Trace, error) {
	return traffic.Record(gen, cfg, slots)
}

// ReadTrace deserializes a trace written with Trace.Write.
var ReadTrace = traffic.ReadTrace

// Switch is a running N×N interconnect simulation.
type Switch = interconnect.Switch

// SwitchConfig configures a simulation; see the field documentation in the
// interconnect package.
type SwitchConfig = interconnect.Config

// Stats aggregates a simulation run.
type Stats = interconnect.Stats

// EngineStats reports the slot engine's own run-time metrics — per-slot
// scheduling latency, per-port busy time, and a sampled
// allocations-per-slot gauge — via Stats.Engine. In distributed mode the
// engine is a persistent worker crew (the RunSlot caller plus up to
// GOMAXPROCS−1 helper goroutines started by NewSwitch and stopped by
// Switch.Finalize), so these metrics describe steady-state behavior rather
// than goroutine churn.
type EngineStats = interconnect.EngineStats

// DurationHistogram is the power-of-two-bucket latency histogram behind
// EngineStats.SlotLatency.
type DurationHistogram = metrics.DurationHistogram

// Gauge is a last-value metric (EngineStats.AllocsPerSlot).
type Gauge = metrics.Gauge

// NewSwitch builds an interconnect simulation. In distributed mode the
// switch starts one persistent scheduling worker per output port; call
// Finalize (or Run, which finalizes) to stop them.
func NewSwitch(cfg SwitchConfig) (*Switch, error) { return interconnect.New(cfg) }

// SwitchSnapshot is a consistent mid-run view of a switch's cumulative
// counters, taken between slots with Switch.Snapshot. Its Conserved method
// checks the packet-accounting partition and Diff compares two engines'
// snapshots field by field — the invariants the wdmsoak harness enforces
// continuously.
type SwitchSnapshot = interconnect.Snapshot

// SlotGrant is one switched connection of the most recent slot, exposed by
// Switch.LastGrants for closed-loop drivers and grant ledgers.
type SlotGrant = interconnect.SlotGrant

// RunBulk drives a bulk transfer through the switch in closed loop until
// the demand drains, returning the makespan in slots. maxSlots bounds
// runaway workloads.
func RunBulk(s *Switch, bulk *BulkTransfer, maxSlots int) (int, *Stats, error) {
	return interconnect.RunBulk(s, bulk, maxSlots)
}

// OpenShopMakespanLB is the open-shop scheduling lower bound for draining
// a demand matrix through an N×N interconnect with k channels per fiber:
// no schedule beats ⌈max(max row sum, max column sum)/k⌉ slots.
func OpenShopMakespanLB(demand [][]int, k int) (int, error) {
	return analysis.OpenShopMakespanLB(demand, k)
}

// FaultInjector is a deterministic fault schedule the switch consumes
// (SwitchConfig.Faults): converter failures, dark channels and port flaps,
// surfaced to the schedulers as per-port channel masks.
type FaultInjector = fault.Injector

// FaultEvent is one timed entry of a scripted fault schedule.
type FaultEvent = fault.Event

// FaultKind enumerates fault event types.
type FaultKind = fault.Kind

// Fault event kinds.
const (
	FaultConverterFail   = fault.ConverterFail
	FaultConverterRepair = fault.ConverterRepair
	FaultChannelDark     = fault.ChannelDark
	FaultChannelRestore  = fault.ChannelRestore
	FaultPortDown        = fault.PortDown
	FaultPortUp          = fault.PortUp
)

// NewFaultScript builds an injector replaying an explicit event list.
func NewFaultScript(n, k int, events []FaultEvent) (FaultInjector, error) {
	return fault.NewScript(n, k, events)
}

// MarkovFaultConfig parameterizes the stochastic fault injector: each
// component is an independent two-state Markov chain with the given
// per-slot fail/repair probabilities.
type MarkovFaultConfig = fault.MarkovConfig

// NewMarkovFaults builds the stochastic injector; all randomness derives
// from the config's seed.
func NewMarkovFaults(cfg MarkovFaultConfig) (FaultInjector, error) {
	return fault.NewMarkov(cfg)
}

// FaultStats reports degraded-mode statistics of a faulted run
// (Stats.Fault; nil when no injector was configured).
type FaultStats = interconnect.FaultStats

// TelemetryRegistry is a named-metric registry; attach one via
// SwitchConfig.Telemetry and the switch registers every run statistic
// under wdm_* names, readable live from concurrent scrapers.
type TelemetryRegistry = telemetry.Registry

// TelemetryMetric is one sample in a registry snapshot.
type TelemetryMetric = telemetry.Metric

// TelemetryLabel is one name/value metric label.
type TelemetryLabel = telemetry.Label

// NewTelemetryRegistry builds an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// TelemetryServer is the opt-in HTTP endpoint serving a registry:
// Prometheus text at /metrics, JSON at /snapshot, expvar at /debug/vars
// and the runtime profiler under /debug/pprof/.
type TelemetryServer = telemetry.Server

// ServeTelemetry binds addr (e.g. ":8080", or "127.0.0.1:0" for an
// ephemeral port) and serves the registry until Close.
func ServeTelemetry(addr string, reg *TelemetryRegistry) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, reg)
}

// WriteTelemetryPrometheus writes a registry snapshot in the Prometheus
// text exposition format.
func WriteTelemetryPrometheus(w io.Writer, reg *TelemetryRegistry) error {
	return telemetry.WritePrometheus(w, reg.Snapshot())
}

// DecisionTracer records per-slot scheduling decisions — grants, rejects
// with reasons, preemptions, fault kills, BFA break edges and per-port
// slot latency — into bounded allocation-free ring buffers. Attach one via
// SwitchConfig.Trace; dump it with its WriteJSONL or WriteChromeTrace
// methods (or the wdmtrace -decisions command).
type DecisionTracer = telemetry.DecisionTracer

// DecisionEvent is one recorded scheduling decision.
type DecisionEvent = telemetry.Event

// NewDecisionTracer builds a tracer for a switch with ports output
// fibers, retaining up to perLaneCap events per port lane.
func NewDecisionTracer(ports, perLaneCap int) *DecisionTracer {
	return telemetry.NewDecisionTracer(ports, perLaneCap)
}

// Decision event kinds (DecisionEvent.Kind).
const (
	EventGrant       = telemetry.EvGrant
	EventRegrant     = telemetry.EvRegrant
	EventReject      = telemetry.EvReject
	EventPreempt     = telemetry.EvPreempt
	EventFaultKill   = telemetry.EvFaultKill
	EventBreakEdge   = telemetry.EvBreakEdge
	EventSlotLatency = telemetry.EvSlotLatency
)

// Reject reasons (DecisionEvent.Reason).
const (
	RejectInputBlocked   = telemetry.ReasonInputBlocked
	RejectWindowOccupied = telemetry.ReasonWindowOccupied
	RejectFaultMasked    = telemetry.ReasonFaultMasked
	RejectLostMatching   = telemetry.ReasonLostMatching
)

// SpanTracer records cross-process tracing spans — controller prepare,
// frame encode, RPC in-flight, node decode/schedule/encode, commit — into
// bounded allocation-free per-lane rings. Attach one via
// ClusterControllerConfig.Spans (controller side) or
// ClusterNodeConfig.Spans (node side); dump with WriteSpans and merge the
// dumps into one Chrome timeline with wdmtrace -merge.
type SpanTracer = telemetry.SpanTracer

// TraceSpan is one recorded span.
type TraceSpan = telemetry.Span

// NewSpanTracer builds a tracer with the given number of lanes, retaining
// up to perLaneCap spans per lane (newest win on overflow).
func NewSpanTracer(lanes, perLaneCap int) *SpanTracer {
	return telemetry.NewSpanTracer(lanes, perLaneCap)
}

// FlightRecorder is the always-on black-box recorder: bounded,
// allocation-free rings retaining the last window of scheduling
// decisions, counter snapshots, fault-mask transitions and (cluster
// runs) per-node health samples. Attach one via SwitchConfig.Recorder —
// the switch adopts its decision tracer, records counter snapshots at
// the configured cadence, and diffs fault masks edge-triggered — then
// dump its rings into an incident bundle with an IncidentBundleWriter.
type FlightRecorder = telemetry.FlightRecorder

// FlightRecorderConfig sizes the recorder's rings and sets the counter
// snapshot cadence.
type FlightRecorderConfig = telemetry.FlightRecorderConfig

// RecorderSnapshot is one recorded counter snapshot (FlightRecorder
// Snapshots / NearestSnapshotBefore).
type RecorderSnapshot = telemetry.SnapshotRecord

// RecorderFaultTransition is one edge-triggered channel-state change.
type RecorderFaultTransition = telemetry.FaultTransition

// RecorderNodeSample is one per-node health/RPC sample from a cluster run.
type RecorderNodeSample = telemetry.NodeSample

// NewFlightRecorder builds a recorder; Ports must match the switch shape.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	return telemetry.NewFlightRecorder(cfg)
}

// IncidentBundleWriter assembles a self-contained incident bundle — a
// gzip tarball with a versioned manifest (entry sizes and CRCs) listed
// first, so truncation and corruption are detectable on read.
type IncidentBundleWriter = telemetry.BundleWriter

// IncidentBundle is a decoded, integrity-checked incident bundle.
type IncidentBundle = telemetry.Bundle

// IncidentBundleManifest describes a bundle: producing tool, trigger,
// slot, wall-clock time and the file table.
type IncidentBundleManifest = telemetry.BundleManifest

// NewIncidentBundleWriter starts a bundle dumped by tool for the given
// trigger ("violation", "sigquit", ...) at the given slot.
func NewIncidentBundleWriter(tool, trigger string, slot int64) *IncidentBundleWriter {
	return telemetry.NewBundleWriter(tool, trigger, slot)
}

// ReadIncidentBundle decodes and integrity-checks a bundle stream.
func ReadIncidentBundle(r io.Reader) (*IncidentBundle, error) {
	return telemetry.ReadBundle(r)
}

// ReadIncidentBundleFile decodes and integrity-checks a bundle file.
func ReadIncidentBundleFile(path string) (*IncidentBundle, error) {
	return telemetry.ReadBundleFile(path)
}

// BatchScheduler resolves one slot's output contention for every port at
// once; plug one into SwitchConfig.Remote to move the scheduling
// computation out of the switch process. Implementations must be
// deterministic — the switch's Stats stay identical to the in-process
// engines by construction.
type BatchScheduler = interconnect.BatchScheduler

// ClusterStats reports the networked runtime's behavior (Stats.Cluster;
// nil unless the run scheduled through a cluster controller).
type ClusterStats = interconnect.ClusterStats

// ClusterController shards the per-output-fiber schedulers across worker
// nodes over TCP or unix sockets: it streams each slot's request vectors
// in one batched frame per node and merges the grants back into the slot
// loop, falling back to bit-identical local scheduling when a node misses
// its deadline. Use it as SwitchConfig.Remote and Close it after the run.
type ClusterController = cluster.Controller

// ClusterControllerConfig configures a cluster run; see the cluster
// package for field semantics and defaults.
type ClusterControllerConfig = cluster.ControllerConfig

// NewClusterController connects to every node, pushes the port partition,
// and returns a ready batch scheduler.
func NewClusterController(cfg ClusterControllerConfig) (*ClusterController, error) {
	return cluster.NewController(cfg)
}

// ClusterNode is a cluster worker: a stateless matching server hosting
// the schedulers for whatever ports a controller assigns it. Run one per
// machine (or in-process for tests) with Serve; see the wdmnode command.
type ClusterNode = cluster.Node

// ClusterNodeConfig tunes a worker node.
type ClusterNodeConfig = cluster.NodeConfig

// NewClusterNode builds a worker node; drive it with Serve on a listener.
func NewClusterNode(cfg ClusterNodeConfig) *ClusterNode { return cluster.NewNode(cfg) }

// TransportFaults injects seeded frame-level drop/delay/duplication on the
// cluster transport (ClusterControllerConfig.Faults), exercising the
// controller's retry and local-fallback machinery without changing any
// scheduling result.
type TransportFaults = fault.TransportFaults

// TransportFaultConfig parameterizes transport fault injection.
type TransportFaultConfig = fault.TransportConfig

// NewTransportFaults validates the probabilities and builds an injector.
func NewTransportFaults(cfg TransportFaultConfig) (*TransportFaults, error) {
	return fault.NewTransportFaults(cfg)
}

// Table is a rendered experiment artifact (ASCII and CSV output).
type Table = metrics.Table

// Experiment regenerates one of the paper's tables or figures; see
// DESIGN.md for the index.
type Experiment = sim.Experiment

// ExperimentConfig tunes experiment cost.
type ExperimentConfig = sim.RunConfig

// Experiments lists every registered experiment (P1–P9, S1–S5).
func Experiments() []Experiment { return sim.All() }

// RunExperiment runs one experiment by ID.
func RunExperiment(id string, cfg ExperimentConfig) ([]*Table, error) {
	e, ok := sim.ByID(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(cfg)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string { return "wdm: unknown experiment " + string(e) }

// PriorityScheduler is the strict-priority QoS extension (the paper's
// Section VI future work): classes scheduled in descending priority, each
// on the channels left by higher classes.
type PriorityScheduler = core.PriorityScheduler

// NewPriorityScheduler builds a strict-priority scheduler around the
// model's exact algorithm.
func NewPriorityScheduler(conv Conversion) (*PriorityScheduler, error) {
	return core.NewPriorityScheduler(conv)
}

// NewMultiBreakScheduler builds the generalized Section IV-C trade-off:
// try the given breaking positions (1-based, within [1, d]) and keep the
// best matching — one position is the O(k) DeltaBreak, all d positions the
// exact O(dk) algorithm. The result is within
// min over tried δ of max{δ−1, d−δ} of optimal.
func NewMultiBreakScheduler(conv Conversion, deltas []int) (Scheduler, error) {
	return core.NewMultiBreak(conv, deltas)
}

// Series is a named (x, y) sequence — one figure line.
type Series = metrics.Series

// PlotASCII renders series as an ASCII chart with auto-scaled axes and a
// marker legend; the textual form of the repository's figures.
func PlotASCII(width, height int, series ...*Series) string {
	return metrics.Plot(width, height, series...)
}

// AsyncConfig parameterizes the asynchronous (wavelength routing) mode of
// Section I: Poisson connection arrivals at one output fiber, exponential
// holds, FCFS channel assignment.
type AsyncConfig = async.Config

// AsyncStats reports an asynchronous run.
type AsyncStats = async.Stats

// Asynchronous channel assignment policies.
const (
	// FirstFit takes the first free window channel.
	FirstFit = async.FirstFit
	// RandomFit takes a uniformly random free window channel.
	RandomFit = async.RandomFit
)

// RunAsync simulates the asynchronous mode for the given number of
// connection arrivals.
func RunAsync(cfg AsyncConfig, arrivals int) (AsyncStats, error) {
	return async.Run(cfg, arrivals)
}

// PathConfig parameterizes the multi-hop wavelength-routing simulation:
// connections traverse Hops consecutive links of a Links-long chain, with
// limited range conversion at every node (the paper's Section I
// wavelength-continuity motivation).
type PathConfig = pathsim.Config

// PathStats reports a multi-hop run.
type PathStats = pathsim.Stats

// PathNetwork is the channel occupancy state of a chain, for manual
// routing scenarios.
type PathNetwork = pathsim.Network

// NewPathNetwork builds an idle chain of links.
func NewPathNetwork(conv Conversion, links int) (*PathNetwork, error) {
	return pathsim.NewNetwork(conv, links)
}

// RunPath simulates Poisson connection arrivals over the chain.
func RunPath(cfg PathConfig, arrivals int) (PathStats, error) {
	return pathsim.Run(cfg, arrivals)
}

// ErlangB returns the M/M/c/c blocking probability at a offered Erlangs —
// the exact model for full range conversion in the asynchronous mode.
func ErlangB(c int, a float64) (float64, error) { return analysis.ErlangB(c, a) }

// FullRangeLoss returns the exact slotwise loss of full range conversion
// under uniform Bernoulli traffic (synchronous mode).
func FullRangeLoss(n, k int, load float64) (float64, error) {
	return analysis.FullRangeLoss(n, k, load)
}

// NoConversionLoss returns the exact slotwise loss without conversion
// (d = 1) under uniform Bernoulli traffic.
func NoConversionLoss(n, k int, load float64) (float64, error) {
	return analysis.NoConversionLoss(n, k, load)
}
