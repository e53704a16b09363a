package interconnect

import (
	"wdmsched/internal/core"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
)

// BatchRequest is one output port's scheduling instance for the current
// slot, as handed to a remote batch scheduler: the request vector the
// port's prepare phase derived, the channel occupancy from held
// connections, and the fault mask (nil when every channel is healthy).
// All slices are switch-owned scratch, valid and immutable until
// ScheduleBatch returns.
type BatchRequest struct {
	Port     int
	Count    []int            // per-wavelength request counts, len k
	Occupied []bool           // per-channel occupancy, len k
	Mask     core.ChannelMask // per-channel fault state, nil = all healthy
}

// BatchResult addresses where a batch scheduler writes one port's
// decision. Res is the port's live result buffer (pre-sized to k); Shadow
// is non-nil exactly when the request carries a fault mask, and must then
// receive the healthy-graph matching of the same instance so degraded-mode
// accounting can attribute lost grants to the faults. The switch rebuilds
// Res's channel index itself and panics if ByOutput and Granted disagree.
type BatchResult struct {
	Port   int
	Res    *core.Result
	Shadow *core.Result
}

// BatchScheduler resolves one slot's output contention for every port at
// once. Implementations must be deterministic functions of the requests —
// the switch asserts that a run through a BatchScheduler produces Stats
// identical to the in-process engines — and must fill out[i] for every
// reqs[i] before returning. A non-nil error aborts the run; transient
// transport trouble is the implementation's to absorb (retry or local
// fallback), not to surface here.
//
// The cluster controller (internal/cluster) is the production
// implementation: it shards ports across worker nodes over TCP or unix
// sockets and schedules locally when a node misses its slot deadline.
type BatchScheduler interface {
	ScheduleBatch(slot int64, reqs []BatchRequest, out []BatchResult) error
}

// ClusterStatsSource is implemented by batch schedulers that track
// cluster runtime statistics; the switch links the stats into
// Stats.Cluster at construction so they surface with the run totals.
type ClusterStatsSource interface {
	ClusterStats() *ClusterStats
}

// SpanSource is implemented by batch schedulers that record distributed
// tracing spans. When the switch detects it on Config.Remote at
// construction, the slot loop emits its own prepare/commit/slot spans
// into the same tracer (on lane 0), so a single dump holds the whole
// controller-side span tree.
type SpanSource interface {
	Spans() *telemetry.SpanTracer
}

// ClusterStats reports the runtime behavior of a networked cluster run:
// how scheduling work split between remote nodes and the controller's
// local fallback, and what the transport cost. Counters are written by the
// cluster controller and safe to read live.
type ClusterStats struct {
	// Nodes is the number of worker nodes the controller partitioned the
	// output ports across.
	Nodes int
	// RemoteItems counts port-slots whose scheduling decision was computed
	// by a remote node.
	RemoteItems metrics.Counter
	// EmptyItems counts port-slots short-circuited on the controller
	// because the request vector was all zero (an empty matching needs no
	// RPC).
	EmptyItems metrics.Counter
	// LocalFallbackItems counts port-slots scheduled locally because the
	// owning node missed its slot deadline, errored, or was marked
	// unhealthy — the graceful-degradation path that keeps slots from
	// stalling.
	LocalFallbackItems metrics.Counter
	// FallbackSlots counts slots in which at least one port fell back to
	// local scheduling.
	FallbackSlots metrics.Counter
	// Retries counts re-sent scheduling RPCs (bounded exponential backoff
	// with jitter).
	Retries metrics.Counter
	// DeadlineMisses counts RPC attempts that exceeded their deadline.
	DeadlineMisses metrics.Counter
	// Reconnects counts successful re-establishments of a node session
	// after a transport failure.
	Reconnects metrics.Counter
	// BytesSent and BytesReceived total the wire traffic between the
	// controller and all nodes, frame headers and checksums included;
	// FramesSent and FramesReceived count the frames themselves. On a
	// fault-free run the controller's FramesSent equals the sum of the
	// nodes' received-frame counters (and vice versa) — the cross-process
	// consistency invariant the cluster smoke test asserts.
	BytesSent      metrics.Counter
	BytesReceived  metrics.Counter
	FramesSent     metrics.Counter
	FramesReceived metrics.Counter
	// RPCLatency is the distribution of successful schedule-RPC round
	// trips, aggregated over nodes.
	RPCLatency *metrics.DurationHistogram
	// Per-stage latency attribution of the distributed slot pipeline
	// (wire v2 tracing). PrepareTime and CommitTime are observed by the
	// switch around ScheduleBatch; EncodeTime by the controller per RPC;
	// the Node* histograms come from the timestamps every grants frame
	// piggybacks (node frame receipt → decode done → schedule barrier →
	// reply encoded), so attribution works even without span dumps.
	PrepareTime      *metrics.DurationHistogram
	EncodeTime       *metrics.DurationHistogram
	NodeDecodeTime   *metrics.DurationHistogram
	NodeScheduleTime *metrics.DurationHistogram
	NodeEncodeTime   *metrics.DurationHistogram
	CommitTime       *metrics.DurationHistogram
}

// NewClusterStats returns zeroed cluster statistics for a controller
// spanning the given number of nodes.
func NewClusterStats(nodes int) *ClusterStats {
	return &ClusterStats{
		Nodes:            nodes,
		RPCLatency:       metrics.NewDurationHistogram(),
		PrepareTime:      metrics.NewDurationHistogram(),
		EncodeTime:       metrics.NewDurationHistogram(),
		NodeDecodeTime:   metrics.NewDurationHistogram(),
		NodeScheduleTime: metrics.NewDurationHistogram(),
		NodeEncodeTime:   metrics.NewDurationHistogram(),
		CommitTime:       metrics.NewDurationHistogram(),
	}
}

// RemoteFraction is the fraction of non-empty scheduling decisions
// computed remotely (1.0 = every RPC met its deadline).
func (c *ClusterStats) RemoteFraction() float64 {
	r := c.RemoteItems.Value()
	l := c.LocalFallbackItems.Value()
	if r+l == 0 {
		return 0
	}
	return float64(r) / float64(r+l)
}
