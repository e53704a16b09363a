package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Grant-path stage indices: the lifecycle of one accepted submit, in
// pipeline order. Every settled request is observed into each stage's
// duration histogram exactly once, so the per-stage counts reconcile
// with the verdict ledger (granted + contention-rejected).
const (
	// StageIngest: frame receipt off the socket to the start of
	// admission (decode, session write lock, service lock wait).
	StageIngest = iota
	// StageAdmission: this request's slice of the admission loop —
	// token bucket, queue-bound check, enqueue booking.
	StageAdmission
	// StageQueueWait: admitted to pulled out of the tenant FIFO into a
	// round batch (includes head-of-line skips on held channels).
	StageQueueWait
	// StageRoundBatch: batch assembly — strict-priority tenant scan and
	// packet build — up to the engine handoff.
	StageRoundBatch
	// StageEngineSchedule: the engine slot itself (RunSlot: scheduling,
	// matching, grant extraction).
	StageEngineSchedule
	// StageEgressWrite: verdict settle to the encoded verdicts frame
	// landing in the session's egress buffer (the socket write itself
	// is the session writer's business and is not attributed here).
	StageEgressWrite
	// NumGrantStages is the stage count; stage arrays index by the
	// constants above.
	NumGrantStages
)

// GrantStageNames are the canonical stage label values, indexed by the
// Stage* constants. They appear as the stage label of
// wdm_grant_stage_seconds and as the keys of an exemplar's stages map.
var GrantStageNames = [NumGrantStages]string{
	"ingest", "admission", "queue_wait", "round_batch", "engine_schedule", "egress_write",
}

// StageDurations is one request's per-stage waterfall in nanoseconds,
// indexed by the Stage* constants. It marshals as a name-keyed object so
// bundles and the /exemplars endpoint stay self-describing.
type StageDurations [NumGrantStages]int64

// MarshalJSON renders the waterfall as {"ingest":ns,...} without
// reflection.
func (s StageDurations) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 24*NumGrantStages)
	buf = append(buf, '{')
	for i, ns := range s {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, GrantStageNames[i]...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendInt(buf, ns, 10)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON accepts the object form; unknown keys are ignored and
// missing stages read as zero.
func (s *StageDurations) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	for i, name := range GrantStageNames {
		s[i] = m[name]
	}
	return nil
}

// Total returns the sum of the stage durations.
func (s StageDurations) Total() int64 {
	var t int64
	for _, ns := range s {
		t += ns
	}
	return t
}

// Exemplar is one retained slow request: identity and QoS labels plus
// the full stage waterfall, enough to reconstruct a flow-linked span
// chain in a Chrome trace without any other context.
type Exemplar struct {
	ID          uint64         `json:"id"`
	Tenant      string         `json:"tenant"`
	Class       uint8          `json:"class"`
	Slot        int64          `json:"slot"`
	Verdict     string         `json:"verdict"`
	WindowStart int64          `json:"window_start"`
	StartNS     int64          `json:"start_ns"` // receipt stamp on the span clock
	TotalNS     int64          `json:"total_ns"` // receipt to egress enqueue
	Stages      StageDurations `json:"stages"`
}

// ExemplarRing retains the K slowest requests of the current slot window
// plus the frozen retained set of the previous window, so a scrape right
// after a rollover still sees a full window of exemplars. Offer is
// allocation-free after construction: the retained set is a small
// insertion-sorted array (ascending by total latency) in preallocated
// backing storage, and sub-threshold offers return after one compare.
// A light mutex guards it — offers come from the grant round loop off
// the engine hot path, reads from HTTP scrapes and bundle dumps.
type ExemplarRing struct {
	mu       sync.Mutex
	k        int
	window   int64      // window width in slots
	winStart int64      // first slot of the current window
	cur      []Exemplar // current window, ascending by TotalNS
	prev     []Exemplar // previous window, frozen, slowest first
	offered  int64
	entered  int64 // offers that made the retained set
	rolls    int64
}

// NewExemplarRing builds a ring retaining the k slowest requests per
// windowSlots-slot window (defaults: 16 and 1024 for non-positive
// arguments).
func NewExemplarRing(k int, windowSlots int64) *ExemplarRing {
	if k <= 0 {
		k = 16
	}
	if windowSlots <= 0 {
		windowSlots = 1024
	}
	return &ExemplarRing{
		k:      k,
		window: windowSlots,
		cur:    make([]Exemplar, 0, k),
		prev:   make([]Exemplar, 0, k),
	}
}

// K returns the per-window retention bound.
func (r *ExemplarRing) K() int { return r.k }

// WindowSlots returns the window width in slots.
func (r *ExemplarRing) WindowSlots() int64 { return r.window }

// ExemplarOffers is the ring held locked for a run of offers: Begin takes
// the lock, each Offer is then plain array work, End releases it. A round
// loop settling a session's worth of requests pays for the lock once, and
// a scrape sees the session's offers all at once or not at all.
type ExemplarOffers struct{ r *ExemplarRing }

// Begin locks the ring for a run of offers; the caller must End it and
// must not touch the ring otherwise in between.
func (r *ExemplarRing) Begin() ExemplarOffers {
	r.mu.Lock()
	return ExemplarOffers{r}
}

// End releases the ring.
func (o ExemplarOffers) End() { o.r.mu.Unlock() }

// Offer considers one settled request for retention. When e.Slot crosses
// into a new window the current retained set is frozen as the previous
// window first. Allocation-free.
func (o ExemplarOffers) Offer(e Exemplar) {
	r := o.r
	r.offered++
	if e.Slot >= r.winStart+r.window {
		r.rollLocked(e.Slot)
	}
	e.WindowStart = r.winStart
	n := len(r.cur)
	if n == r.k {
		if e.TotalNS <= r.cur[0].TotalNS {
			return // faster than everything retained
		}
		copy(r.cur, r.cur[1:]) // evict the fastest
		n--
		r.cur = r.cur[:n]
	}
	i := n
	r.cur = r.cur[:n+1]
	for i > 0 && r.cur[i-1].TotalNS > e.TotalNS {
		r.cur[i] = r.cur[i-1]
		i--
	}
	r.cur[i] = e
	r.entered++
}

// Offer is a one-request Begin/Offer/End; safe for concurrent use.
func (r *ExemplarRing) Offer(e Exemplar) {
	o := r.Begin()
	o.Offer(e)
	o.End()
}

// rollLocked freezes the current window into prev (slowest first) and
// aligns a fresh window containing slot.
func (r *ExemplarRing) rollLocked(slot int64) {
	r.prev = r.prev[:0]
	for i := len(r.cur) - 1; i >= 0; i-- {
		r.prev = append(r.prev, r.cur[i])
	}
	r.cur = r.cur[:0]
	r.winStart = slot - slot%r.window
	r.rolls++
}

// Snapshot copies the retained exemplars: the current window slowest
// first, then the frozen previous window slowest first.
func (r *ExemplarRing) Snapshot() []Exemplar {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Exemplar, 0, len(r.cur)+len(r.prev))
	for i := len(r.cur) - 1; i >= 0; i-- {
		out = append(out, r.cur[i])
	}
	return append(out, r.prev...)
}

// Offered returns the total requests offered to the ring.
func (r *ExemplarRing) Offered() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offered
}

// Dropped returns the offers that never entered the retained set (faster
// than the K slowest of their window at offer time).
func (r *ExemplarRing) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.offered - r.entered
}

// Occupancy returns the current window's fill fraction of K.
func (r *ExemplarRing) Occupancy() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(len(r.cur)) / float64(r.k)
}

// WriteJSONL writes the retained exemplars (Snapshot order) as JSONL for
// incident bundles.
func (r *ExemplarRing) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.Snapshot() {
		raw, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadExemplarsJSONL parses a JSONL stream of exemplars (the bundle
// entry / wdmtrace input format).
func ReadExemplarsJSONL(rd io.Reader) ([]Exemplar, error) {
	var out []Exemplar
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Exemplar
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("exemplars line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
