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
// paper's tables and figures see RunExperiment (or the wdmbench command).
//
// This package exports what the examples and the repository benchmark
// call. The rest of the system — fault injection, the cluster runtime,
// decision tracing, flight recording, the grant service — lives in the
// internal packages the wdm* commands are built from.
package wdm

import (
	"wdmsched/internal/analysis"
	"wdmsched/internal/async"
	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
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

// NewExactScheduler returns the paper's exact algorithm for the model:
// First Available, Break and First Available (as the word-parallel kernel)
// or FullRange.
func NewExactScheduler(conv Conversion) (Scheduler, error) { return core.NewExact(conv) }

// ValidateResult checks that res is a feasible assignment for the request
// vector and occupancy under conv.
func ValidateResult(conv Conversion, count []int, occupied []bool, res *Result) error {
	return core.Validate(conv, count, occupied, res)
}

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

// Switch is a running N×N interconnect simulation.
type Switch = interconnect.Switch

// SwitchConfig configures a simulation; see the field documentation in the
// interconnect package.
type SwitchConfig = interconnect.Config

// Stats aggregates a simulation run.
type Stats = interconnect.Stats

// NewSwitch builds an interconnect simulation. In distributed mode the
// switch starts its scheduling worker crew; call Finalize (or Run, which
// finalizes) to stop it.
func NewSwitch(cfg SwitchConfig) (*Switch, error) { return interconnect.New(cfg) }

// TelemetryRegistry is a named-metric registry; attach one via
// SwitchConfig.Telemetry and the switch registers every run statistic
// under wdm_* names, readable live from concurrent scrapers.
type TelemetryRegistry = telemetry.Registry

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

// Table is a rendered experiment artifact (ASCII and CSV output).
type Table = metrics.Table

// ExperimentConfig tunes experiment cost.
type ExperimentConfig = sim.RunConfig

// RunExperiment runs one experiment by ID: a reproduced table or figure
// of the paper (P1–P10) or a simulation study (S1–S14); DESIGN.md has the
// index.
func RunExperiment(id string, cfg ExperimentConfig) ([]*Table, error) {
	e, ok := sim.ByID(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(cfg)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string { return "wdm: unknown experiment " + string(e) }

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

// FirstFit is the asynchronous mode's FCFS channel assignment policy: the
// first free window channel.
const FirstFit = async.FirstFit

// RunAsync simulates the asynchronous mode for the given number of
// connection arrivals.
func RunAsync(cfg AsyncConfig, arrivals int) (AsyncStats, error) {
	return async.Run(cfg, arrivals)
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
