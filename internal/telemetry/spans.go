package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// spanEpoch anchors the process-local monotonic span clock. Spans from
// different processes live on different epochs; the cluster controller
// estimates each node's offset from piggybacked frame timestamps so
// wdmtrace -merge can place all spans on one timeline.
var spanEpoch = time.Now()

// NowNS returns nanoseconds since the process-local span epoch. It is
// monotonic (immune to wall-clock steps) and allocation-free, so the
// scheduling hot paths can stamp spans directly.
func NowNS() int64 { return time.Since(spanEpoch).Nanoseconds() }

// SpanStage identifies which phase of a distributed scheduling slot a
// span covers. The controller-side pipeline is prepare → encode → RPC →
// commit; inside each RPC the node runs decode → schedule → encode.
type SpanStage uint8

const (
	// StageSlot: the whole remote scheduling phase of one slot
	// (controller side, prepare start to commit end).
	StageSlot SpanStage = iota + 1
	// StagePrepare: the switch derives every port's request vector.
	StagePrepare
	// StageEncode: a schedule frame is built (controller side).
	StageEncode
	// StageRPC: a schedule RPC is in flight — send to grants received.
	StageRPC
	// StageDecode: the node decodes a schedule frame.
	StageDecode
	// StageSchedule: one port's matching computation (node side, or the
	// controller's local path).
	StageSchedule
	// StageNodeEncode: the node encodes its grants reply.
	StageNodeEncode
	// StageCommit: the controller merges grants into the switch state.
	StageCommit
	// StageFallback: a link's items were scheduled locally after its
	// node missed the slot deadline.
	StageFallback
)

// String returns a stable lowercase name for the stage.
func (s SpanStage) String() string {
	switch s {
	case StageSlot:
		return "slot"
	case StagePrepare:
		return "prepare"
	case StageEncode:
		return "encode"
	case StageRPC:
		return "rpc"
	case StageDecode:
		return "decode"
	case StageSchedule:
		return "schedule"
	case StageNodeEncode:
		return "node-encode"
	case StageCommit:
		return "commit"
	case StageFallback:
		return "fallback"
	}
	return "unknown"
}

// ParseSpanStage maps a stage name back to its value (0 when unknown).
func ParseSpanStage(name string) SpanStage {
	for s := StageSlot; s <= StageFallback; s++ {
		if s.String() == name {
			return s
		}
	}
	return 0
}

// Span is one timed phase of a distributed scheduling slot. Start is in
// nanoseconds on the emitting process's span clock (NowNS); ID correlates
// the spans of one RPC across processes (0 for purely local stages).
type Span struct {
	Slot  int64
	Lane  int32 // emitting lane: 0 = slot/frame lane, 1+i = link or port i
	Stage SpanStage
	Port  int32 // output port, -1 when not port-scoped
	ID    uint64
	Start int64 // ns since the process span epoch
	Dur   int64 // ns
}

// spanRing is one lane's bounded span buffer. Unlike the decision
// tracer's single-writer lanes, span lanes take a (never-contended in
// steady state) mutex per emission: a node must serve its /spans endpoint
// while sessions are actively scheduling, so reads have to synchronize
// with writers without waiting for a run barrier.
type spanRing struct {
	mu sync.Mutex
	ring[Span]
	_ [32]byte // keep neighboring lanes off one cache line
}

// SpanTracer records distributed-tracing spans into per-lane bounded ring
// buffers. Emission is allocation-free; when a lane overflows, its oldest
// spans are overwritten (and counted as dropped). Lanes can be grown with
// EnsureLanes as the topology becomes known (a node learns its port count
// only at configure time).
type SpanTracer struct {
	mu    sync.RWMutex
	cap   int
	lanes []*spanRing
}

// NewSpanTracer builds a tracer with the given initial lane count,
// keeping up to perLaneCap spans per lane (rounded up to 1).
func NewSpanTracer(lanes, perLaneCap int) *SpanTracer {
	if lanes < 1 {
		lanes = 1
	}
	if perLaneCap < 1 {
		perLaneCap = 1
	}
	t := &SpanTracer{cap: perLaneCap}
	t.EnsureLanes(lanes)
	return t
}

// EnsureLanes grows the tracer to at least n lanes. Call it from setup
// paths (configure, controller construction) so Emit never allocates.
func (t *SpanTracer) EnsureLanes(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.lanes) < n {
		r := &spanRing{}
		r.init(t.cap)
		t.lanes = append(t.lanes, r)
	}
}

// Lanes returns the current lane count.
func (t *SpanTracer) Lanes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.lanes)
}

// Emit records one span on lane l. Spans to lanes that were never ensured
// are silently dropped rather than allocating on the hot path.
func (t *SpanTracer) Emit(l int, s Span) {
	t.mu.RLock()
	if l < 0 || l >= len(t.lanes) {
		t.mu.RUnlock()
		return
	}
	r := t.lanes[l]
	t.mu.RUnlock()
	r.mu.Lock()
	r.push(s)
	r.mu.Unlock()
}

// eachLane calls f on every lane, under that lane's mutex.
func (t *SpanTracer) eachLane(f func(r *spanRing)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.lanes {
		r.mu.Lock()
		f(r)
		r.mu.Unlock()
	}
}

// Emitted returns the total number of spans emitted across lanes.
func (t *SpanTracer) Emitted() (n int64) {
	t.eachLane(func(r *spanRing) { n += r.total.Load() })
	return n
}

// Dropped returns how many spans were overwritten by ring wraparound.
func (t *SpanTracer) Dropped() (n int64) {
	t.eachLane(func(r *spanRing) { n += r.dropped() })
	return n
}

// Reset clears all lanes.
func (t *SpanTracer) Reset() { t.eachLane(func(r *spanRing) { r.reset() }) }

// Spans returns a snapshot of the retained spans, ordered by start time
// (then lane). Safe to call while emitters are running.
func (t *SpanTracer) Spans() []Span {
	var out []Span
	t.eachLane(func(r *spanRing) { out = r.appendTo(out) })
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Lane < out[b].Lane
	})
	return out
}

// WriteJSONL writes one JSON object per retained span — the dump format
// wdmtrace -merge consumes (preceded by a process meta line written by
// the dumping command).
func (t *SpanTracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.Spans() {
		_, err := fmt.Fprintf(bw,
			`{"slot":%d,"lane":%d,"stage":%q,"port":%d,"id":%d,"start":%d,"dur":%d}`+"\n",
			s.Slot, s.Lane, s.Stage.String(), s.Port, s.ID, s.Start, s.Dur)
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
