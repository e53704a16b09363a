package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/fault"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// ControllerConfig describes a cluster run: which nodes to shard the
// output-fiber schedulers across and how hard to try before scheduling a
// port locally.
type ControllerConfig struct {
	// Addrs lists the worker nodes. "host:port" dials TCP; "unix:/path"
	// (or any address containing a slash) dials a unix socket. Output port
	// o is assigned to node o mod len(Addrs).
	Addrs []string
	// N and Conv are the interconnect shape: N output fibers, each with
	// Conv.K() wavelength channels under conversion model Conv.
	N    int
	Conv wavelength.Conversion
	// Scheduler is the core.NewByName scheduler every node session
	// instantiates once for its assigned ports (and the controller once per
	// link for local fallback).
	Scheduler string
	// RPCTimeout bounds each dial, each handshake and each attempt round's
	// wait for the replies, one deadline for all its links (default 500ms).
	RPCTimeout time.Duration
	// Retries is how many retry rounds re-send a failed attempt before the
	// link's ports fall back to local scheduling for the slot (default 2;
	// negative means fall back after the first failure).
	Retries int
	// BackoffBase seeds the backoff before retry round r: base·2^(r−1) plus
	// seeded jitter per link, the round waiting out the largest (default 2ms).
	BackoffBase time.Duration
	// DialTimeout bounds the initial connection establishment per node,
	// retried in a loop so controllers may start before their nodes
	// (default 5s).
	DialTimeout time.Duration
	// ProbeSlots is how many slots a failed link waits between reconnect
	// probes once its immediate redial has failed (default 16).
	ProbeSlots int
	// Faults, when non-nil, injects frame drop/delay/duplication on the
	// controller side of every link.
	Faults *fault.TransportFaults
	// Seed drives the retry jitter and handshake nonces.
	Seed uint64
	// Spans, when non-nil, records controller-side spans — encode, RPC
	// in-flight, local fallback — on lane 1+shard for every slot (lane 0
	// is left to the switch's prepare/commit spans). Merge with node span
	// dumps via wdmtrace -merge.
	Spans *telemetry.SpanTracer
	// Logf, when non-nil, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

func (c *ControllerConfig) fillDefaults() {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 500 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 2
	} else if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 2 * time.Millisecond
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ProbeSlots <= 0 {
		c.ProbeSlots = 16
	}
}

// Controller shards the per-output-fiber schedulers across worker nodes
// and drives them slot by slot: it implements interconnect.BatchScheduler,
// streaming each slot's request vectors to every node in one batched frame
// and merging the grants back into the switch's slot loop. Nodes that miss
// their deadline (after bounded retries) degrade gracefully — the
// controller schedules their ports locally with an identical scheduler, so
// the slot never stalls and the results never change. All of it runs on
// the caller's goroutine: the nodes are the parallelism, the controller
// starts no goroutine once NewController returns.
type Controller struct {
	cfg   ControllerConfig
	links []*link
	stats *interconnect.ClusterStats
	runID uint64 // trace context carried by every v2 schedule frame

	pending []*link // ScheduleBatch scratch: the links still owed a reply
	closed  atomic.Bool
}

// link is one controller→node session plus everything needed to survive
// its loss: the fallback scheduler and the reconnect bookkeeping. Only the
// goroutine calling ScheduleBatch touches it, apart from the atomics.
type link struct {
	ctrl *Controller
	id   int
	addr string

	tr        *wire.Conn // nil while disconnected
	seq       uint64
	rng       *traffic.RNG // jitter + nonces
	fb        core.Scheduler
	nextProbe int64 // earliest slot to attempt a reconnect at

	healthy atomic.Bool // mirrors tr != nil, for telemetry reads

	items   []int  // indices into the slot's batch owned by this link
	payload []byte // schedule frame build buffer
	ports   []byte // cached config payload

	// The slot's attempt in flight: the encode start and send stamp (t0)
	// of the frame out, and the last failure, logged on fallback.
	encStart, t0 int64
	err          error

	// Clock reconciliation: every grants frame carries node span-clock
	// stamps; the lowest-RTT sample wins (NTP-style, RTT/2 correction).
	// gt holds the last reply's t1..t4; offset/rtt are atomics so
	// LinkSyncs can read them mid-run.
	gt      [4]int64
	bestRTT int64
	offset  atomic.Int64 // node span clock minus controller span clock, ns
	rtt     atomic.Int64
}

// NewController validates the configuration, connects to every node
// (waiting up to DialTimeout each, so nodes may still be starting), pushes
// the port partition, and returns a ready BatchScheduler.
func NewController(cfg ControllerConfig) (*Controller, error) {
	cfg.fillDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("cluster: no node addresses")
	}
	if cfg.N <= 0 || cfg.N > maxPorts {
		return nil, fmt.Errorf("cluster: ports %d outside (0, %d]", cfg.N, maxPorts)
	}
	if cfg.N > 0xffff {
		return nil, fmt.Errorf("cluster: ports %d exceed u16 request-count wire range", cfg.N)
	}
	if k := cfg.Conv.K(); k <= 0 || k > maxWavelengths {
		return nil, fmt.Errorf("cluster: wavelengths %d outside (0, %d]", k, maxWavelengths)
	}
	if len(cfg.Addrs) > cfg.N {
		return nil, fmt.Errorf("cluster: %d nodes for %d ports", len(cfg.Addrs), cfg.N)
	}
	ctrl := &Controller{
		cfg:   cfg,
		stats: interconnect.NewClusterStats(len(cfg.Addrs)),
		runID: traffic.NewRNG(cfg.Seed^0x52554e5f49445f31).Uint64() | 1,
	}
	if cfg.Spans != nil {
		cfg.Spans.EnsureLanes(1 + len(cfg.Addrs))
	}
	for i, addr := range cfg.Addrs {
		fb, err := core.NewByName(cfg.Scheduler, cfg.Conv)
		if err != nil {
			return nil, err
		}
		l := &link{
			ctrl: ctrl,
			id:   i,
			addr: addr,
			rng:  traffic.NewRNG(cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)),
			fb:   fb,
		}
		l.ports = l.encodeConfig()
		ctrl.links = append(ctrl.links, l)
	}
	// Initial dials run concurrently so a cold cluster comes up in one
	// DialTimeout, not one per node.
	errs := make([]error, len(ctrl.links))
	var dialWG sync.WaitGroup
	dialWG.Add(len(ctrl.links))
	for i, l := range ctrl.links {
		go func(i int, l *link) {
			defer dialWG.Done()
			deadline := time.Now().Add(cfg.DialTimeout)
			for {
				err := l.connect()
				if err == nil {
					return
				}
				var verr *wire.VersionError
				if errors.As(err, &verr) {
					// A protocol mismatch will not heal by waiting;
					// fail the whole controller fast with both versions.
					errs[i] = err
					return
				}
				if time.Now().After(deadline) {
					errs[i] = err
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
		}(i, l)
	}
	dialWG.Wait()
	for i, err := range errs {
		if err != nil {
			ctrl.Close()
			return nil, fmt.Errorf("cluster: node %s: %w", cfg.Addrs[i], err)
		}
	}
	ctrl.logf("cluster up: %d ports across %d nodes, scheduler %s",
		cfg.N, len(cfg.Addrs), cfg.Scheduler)
	return ctrl, nil
}

func (c *Controller) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// ClusterStats exposes the runtime counters; the switch links them into
// its Stats via interconnect.ClusterStatsSource.
func (c *Controller) ClusterStats() *interconnect.ClusterStats { return c.stats }

// RunID identifies this controller run. Every v2 schedule frame carries
// it, so wdmtrace -merge can refuse to merge dumps from different runs.
func (c *Controller) RunID() uint64 { return c.runID }

// Spans exposes the configured span tracer (nil when tracing is off);
// implements interconnect.SpanSource so the switch emits its
// prepare/commit/slot spans into the same tracer.
func (c *Controller) Spans() *telemetry.SpanTracer { return c.cfg.Spans }

// LinkSync is one node link's clock reconciliation estimate, derived from
// the lowest-RTT schedule RPC observed so far.
type LinkSync struct {
	Addr     string `json:"node"`
	Shard    int    `json:"shard"`
	OffsetNS int64  `json:"offset_ns"` // node span clock minus controller span clock
	RTTNS    int64  `json:"rtt_ns"`    // round trip minus node processing time
}

// LinkSyncs returns the current per-link clock estimates. Safe to call
// mid-run.
func (c *Controller) LinkSyncs() []LinkSync {
	out := make([]LinkSync, len(c.links))
	for i, l := range c.links {
		out[i] = LinkSync{Addr: l.addr, Shard: l.id, OffsetNS: l.offset.Load(), RTTNS: l.rtt.Load()}
	}
	return out
}

// NodeHealth is one node link's identity and liveness — the per-node view
// the flight recorder samples into its node ring.
type NodeHealth struct {
	Shard   int
	Addr    string
	Healthy bool
}

// NodeHealth appends the current health of every node link to dst and
// returns it. Safe to call mid-run (reads only atomics); pass a reused
// slice to keep sampling allocation-free.
func (c *Controller) NodeHealth(dst []NodeHealth) []NodeHealth {
	for _, l := range c.links {
		dst = append(dst, NodeHealth{Shard: l.id, Addr: l.addr, Healthy: l.healthy.Load()})
	}
	return dst
}

// WriteSpans dumps the controller's span dump: one meta line (role, run
// ID, per-link clock estimates) followed by the retained spans as JSONL —
// the controller half of a wdmtrace -merge input pair.
func (c *Controller) WriteSpans(w io.Writer) error {
	if c.cfg.Spans == nil {
		return errors.New("cluster: controller has no span tracer")
	}
	meta := struct {
		Meta struct {
			Role  string     `json:"role"`
			RunID uint64     `json:"run_id"`
			Links []LinkSync `json:"links"`
		} `json:"meta"`
	}{}
	meta.Meta.Role = "controller"
	meta.Meta.RunID = c.runID
	meta.Meta.Links = c.LinkSyncs()
	enc, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(enc, '\n')); err != nil {
		return err
	}
	return c.cfg.Spans.WriteJSONL(w)
}

// ScheduleBatch implements interconnect.BatchScheduler: partition the
// slot's non-empty request vectors across the node links and step every
// busy link through attempt rounds until each port has its decision —
// remote when the node answers in time, locally recomputed when it does
// not. Each round sends every pending link's frame, then reads the replies
// in link order under one shared deadline, so silent nodes cost one
// RPCTimeout per round together, not one each.
func (c *Controller) ScheduleBatch(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	if c.closed.Load() {
		return errors.New("cluster: controller closed")
	}
	for _, l := range c.links {
		l.items = l.items[:0]
	}
	nodes := len(c.links)
	for i := range reqs {
		req := &reqs[i]
		if core.TotalRequests(req.Count) == 0 {
			// An empty request vector has the empty matching as its only
			// (and thus maximum) matching; short-circuit without an RPC.
			out[i].Res.Reset()
			if out[i].Shadow != nil {
				out[i].Shadow.Reset()
			}
			c.stats.EmptyItems.Inc()
			continue
		}
		c.links[req.Port%nodes].items = append(c.links[req.Port%nodes].items, i)
	}
	fallbacks := c.stats.LocalFallbackItems.Value()
	pending := c.pending[:0]
	for _, l := range c.links {
		if len(l.items) == 0 {
			continue
		}
		if l.tr == nil && !l.reconnect(slot) {
			l.fallback(slot, reqs, out)
			continue
		}
		pending = append(pending, l)
	}
	for round := 0; round <= c.cfg.Retries && len(pending) > 0; round++ {
		if round > 0 {
			c.backoff(pending, round)
		}
		for _, l := range pending {
			if l.tr != nil {
				l.send(slot, reqs)
			}
		}
		deadline := time.Now().Add(c.cfg.RPCTimeout)
		kept := pending[:0]
		for _, l := range pending {
			if l.tr != nil && l.receive(slot, reqs, out, deadline) {
				continue
			}
			var verr *wire.VersionError
			if errors.As(l.err, &verr) {
				l.giveUp(slot, reqs, out) // a protocol mismatch will not heal
				continue
			}
			kept = append(kept, l)
		}
		pending = kept
	}
	for _, l := range pending {
		l.giveUp(slot, reqs, out)
	}
	c.pending = pending[:0]
	if c.stats.LocalFallbackItems.Value() > fallbacks {
		c.stats.FallbackSlots.Inc()
	}
	return nil
}

// Close tears down every link. Call only after the run's last
// ScheduleBatch has returned.
func (c *Controller) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, l := range c.links {
		if l.tr != nil {
			l.tr.Close()
			l.tr = nil
			l.healthy.Store(false)
		}
	}
	return nil
}

// RegisterTelemetry publishes the cluster runtime counters on a registry
// under wdm_cluster_* names, alongside the switch's own series.
func (c *Controller) RegisterTelemetry(r *telemetry.Registry) {
	st := c.stats
	r.CounterFunc("wdm_cluster_remote_items_total", "Port-slots scheduled on a remote node.", nil, st.RemoteItems.Value)
	r.CounterFunc("wdm_cluster_empty_items_total", "Port-slots short-circuited (empty request vector).", nil, st.EmptyItems.Value)
	r.CounterFunc("wdm_cluster_fallback_items_total", "Port-slots scheduled by the controller's local fallback.", nil, st.LocalFallbackItems.Value)
	r.CounterFunc("wdm_cluster_fallback_slots_total", "Slots in which at least one port fell back locally.", nil, st.FallbackSlots.Value)
	r.CounterFunc("wdm_cluster_retries_total", "Re-sent schedule RPCs.", nil, st.Retries.Value)
	r.CounterFunc("wdm_cluster_deadline_misses_total", "Schedule RPC attempts that exceeded their deadline.", nil, st.DeadlineMisses.Value)
	r.CounterFunc("wdm_cluster_reconnects_total", "Node sessions re-established after a transport failure.", nil, st.Reconnects.Value)
	r.CounterFunc("wdm_cluster_bytes_sent_total", "Bytes written to node links, framing included.", nil, st.BytesSent.Value)
	r.CounterFunc("wdm_cluster_bytes_received_total", "Bytes read from node links, framing included.", nil, st.BytesReceived.Value)
	r.CounterFunc("wdm_cluster_frames_sent_total", "Frames written to node links.", nil, st.FramesSent.Value)
	r.CounterFunc("wdm_cluster_frames_received_total", "Frames read from node links.", nil, st.FramesReceived.Value)
	r.DurationHistogram("wdm_cluster_rpc_latency_seconds", "Successful schedule RPC round-trip time.", nil, st.RPCLatency)
	stage := func(name string, h *metrics.DurationHistogram) {
		r.DurationHistogram("wdm_cluster_stage_seconds", "Per-stage latency attribution of the distributed slot pipeline.",
			[]telemetry.Label{{Key: "stage", Value: name}}, h)
	}
	stage("prepare", st.PrepareTime)
	stage("encode", st.EncodeTime)
	stage("node-decode", st.NodeDecodeTime)
	stage("node-schedule", st.NodeScheduleTime)
	stage("node-encode", st.NodeEncodeTime)
	stage("commit", st.CommitTime)
	// Per-stage latency SLOs (wdm_slo_* burn-rate gauges): the RPC round
	// trip gets a wider budget than the controller-local stages.
	telemetry.RegisterSLO(r, "rpc", st.RPCLatency, 10*time.Millisecond, 0.999)
	telemetry.RegisterSLO(r, "prepare", st.PrepareTime, time.Millisecond, 0.999)
	telemetry.RegisterSLO(r, "encode", st.EncodeTime, time.Millisecond, 0.999)
	telemetry.RegisterSLO(r, "commit", st.CommitTime, time.Millisecond, 0.999)
	r.GaugeFunc("wdm_cluster_remote_fraction", "Fraction of non-empty decisions computed remotely.", nil, st.RemoteFraction)
	for _, l := range c.links {
		lbl := []telemetry.Label{{Key: "node", Value: l.addr}, {Key: "shard", Value: strconv.Itoa(l.id)}}
		hf := l.healthy.Load
		r.GaugeFunc("wdm_cluster_node_healthy", "1 while the node link is connected and serving.", lbl, func() float64 {
			if hf() {
				return 1
			}
			return 0
		})
	}
	if f := c.cfg.Faults; f != nil {
		r.CounterFunc("wdm_cluster_net_faults_total", "Injected transport faults.",
			[]telemetry.Label{{Key: "kind", Value: "drop"}}, f.Drops.Value)
		r.CounterFunc("wdm_cluster_net_faults_total", "Injected transport faults.",
			[]telemetry.Label{{Key: "kind", Value: "duplicate"}}, f.Duplicates.Value)
		r.CounterFunc("wdm_cluster_net_faults_total", "Injected transport faults.",
			[]telemetry.Label{{Key: "kind", Value: "delay"}}, f.Delays.Value)
	}
}

// retryDelay is the pause before retry attempt n (n ≥ 1): the attempt's
// exponential backoff base plus uniform seeded jitter in [0, base].
func retryDelay(rng *traffic.RNG, base time.Duration, attempt int) time.Duration {
	if attempt > 32 {
		attempt = 32 // clamp the shift; real retry budgets are single digits
	}
	d := base << (attempt - 1)
	return d + time.Duration(rng.Intn(int(d)+1))
}

// backoff opens retry round n for the pending links, all of which lost
// their session in the previous round: each draws its own seeded jitter,
// the caller sleeps once for the largest, and then every link redials. A
// failed attempt always tears its session down — a timed-out read may
// have consumed a partial frame, and a fresh session is the only way to
// guarantee stream alignment (nodes are stateless, so a new session costs
// one handshake and nothing else). A link whose redial fails sits the
// round out and stays pending.
func (c *Controller) backoff(pending []*link, round int) {
	var wait time.Duration
	for _, l := range pending {
		c.stats.Retries.Inc()
		wait = max(wait, retryDelay(l.rng, c.cfg.BackoffBase, round))
	}
	time.Sleep(wait)
	for _, l := range pending {
		if l.err = l.connect(); l.err == nil {
			c.stats.Reconnects.Inc()
		}
	}
}

// send encodes and writes the link's schedule frame for its items — the
// first half of an attempt; a failed write fails the link. The v2 frame
// carries the trace context (run ID, span ID = seq<<20|shard) and the
// send-time stamp t0, patched into the encoded payload last so the network
// span excludes encode time.
func (l *link) send(slot int64, reqs []interconnect.BatchRequest) {
	l.seq++
	l.encStart = telemetry.NowNS()
	b := l.payload[:0]
	b = wire.PutU64(b, l.seq)
	b = wire.PutU64(b, uint64(slot))
	b = wire.PutU64(b, l.ctrl.runID)
	b = wire.PutU64(b, l.spanID())
	b = wire.PutI64(b, 0) // t0, patched below at send time
	b = wire.PutU32(b, uint32(len(l.items)))
	for _, i := range l.items {
		req := &reqs[i]
		b = wire.PutU32(b, uint32(req.Port))
		for _, c := range req.Count {
			b = wire.PutU16(b, uint16(c))
		}
		b = appendOccupied(b, req.Occupied)
		if req.Mask != nil {
			b = append(b, 1)
			for _, s := range req.Mask {
				b = append(b, byte(s))
			}
		} else {
			b = append(b, 0)
		}
	}
	l.payload = b
	l.t0 = telemetry.NowNS()
	l.ctrl.stats.EncodeTime.Observe(time.Duration(l.t0 - l.encStart))
	wire.PatchU64(l.payload, schedT0Off, uint64(l.t0))
	if err := l.tr.Send(msgSchedule, l.payload); err != nil {
		l.fail(err)
	}
}

// receive reads and decodes the reply to the frame send wrote — the
// second half of an attempt — under the round's read deadline, and
// reports whether it succeeded; a failure fails the link. A read past its
// deadline fails even with the reply already in the socket buffer, so a
// link read after an earlier one used up the deadline gets a grace window
// of its own.
func (l *link) receive(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult, deadline time.Time) bool {
	if late := time.Now().Add(l.ctrl.cfg.RPCTimeout / 8); late.After(deadline) {
		deadline = late
	}
	payload, err := l.expect(msgGrants, l.seq, deadline)
	t5 := telemetry.NowNS()
	spanID := l.spanID()
	if err == nil {
		err = l.decodeGrants(payload, spanID, reqs, out)
	}
	if err != nil {
		l.fail(err)
		return false
	}
	l.observeSync(l.t0, t5)
	st := l.ctrl.stats
	st.RemoteItems.Add(int64(len(l.items)))
	st.RPCLatency.Observe(time.Duration(telemetry.NowNS() - l.encStart))
	if tr := l.ctrl.cfg.Spans; tr != nil {
		lane := 1 + l.id
		tr.Emit(lane, telemetry.Span{Slot: slot, Lane: int32(lane), Stage: telemetry.StageEncode,
			Port: -1, ID: spanID, Start: l.encStart, Dur: l.t0 - l.encStart})
		tr.Emit(lane, telemetry.Span{Slot: slot, Lane: int32(lane), Stage: telemetry.StageRPC,
			Port: -1, ID: spanID, Start: l.t0, Dur: t5 - l.t0})
	}
	return true
}

// spanID is the trace span of the link's current attempt.
func (l *link) spanID() uint64 { return l.seq<<20 | uint64(l.id) }

// fail records a failed attempt and tears its session down.
func (l *link) fail(err error) {
	l.err = err
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		l.ctrl.stats.DeadlineMisses.Inc()
	}
	l.tr.Close()
	l.tr = nil
	l.healthy.Store(false)
}

// giveUp ends the downed link's attempts for the slot: its items are
// scheduled locally, and the next slot probes for a reconnect.
func (l *link) giveUp(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) {
	l.ctrl.logf("node %s: slot %d falling back: %v", l.addr, slot, l.err)
	l.nextProbe = slot + 1
	l.fallback(slot, reqs, out)
}

// observeSync folds one RPC's piggybacked node stamps into the link's
// clock-offset estimate. The sample with the lowest round-trip time bounds
// the asymmetry error tightest, so only improvements are kept.
func (l *link) observeSync(t0, t5 int64) {
	rtt := (t5 - t0) - (l.gt[3] - l.gt[0])
	if rtt < 0 {
		rtt = 0
	}
	if l.bestRTT != 0 && rtt >= l.bestRTT {
		return
	}
	l.bestRTT = rtt
	l.offset.Store(((l.gt[0] - t0) + (l.gt[3] - t5)) / 2)
	l.rtt.Store(rtt)
}

// decodeGrants writes a grants payload into the slot's result buffers,
// checking that the node answered exactly the items asked, in order, and
// harvesting the piggybacked node timestamps for stage attribution.
func (l *link) decodeGrants(payload []byte, spanID uint64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	st := l.ctrl.stats
	k := l.ctrl.cfg.Conv.K()
	r := wire.NewReader(payload)
	r.U64() // seq, already matched by expect
	r.U64() // slot echo
	span := r.U64()
	l.gt[0] = r.I64() // t1: node received the schedule frame
	l.gt[1] = r.I64() // t2: node finished decoding
	l.gt[2] = r.I64() // t3: node schedule barrier done
	l.gt[3] = r.I64() // t4: node finished encoding the reply
	items := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if span != spanID {
		return fmt.Errorf("cluster: grants echo span %#x, want %#x", span, spanID)
	}
	st.NodeDecodeTime.Observe(time.Duration(l.gt[1] - l.gt[0]))
	st.NodeScheduleTime.Observe(time.Duration(l.gt[2] - l.gt[1]))
	st.NodeEncodeTime.Observe(time.Duration(l.gt[3] - l.gt[2]))
	if items != len(l.items) {
		return fmt.Errorf("cluster: grants carry %d items, want %d", items, len(l.items))
	}
	for _, i := range l.items {
		port := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if port != reqs[i].Port {
			return fmt.Errorf("cluster: grants out of order: port %d, want %d", port, reqs[i].Port)
		}
		if err := readResult(&r, k, out[i].Res); err != nil {
			return err
		}
		hasShadow := r.U8() != 0
		if hasShadow != (out[i].Shadow != nil) {
			return fmt.Errorf("cluster: port %d shadow presence %v, want %v", port, hasShadow, out[i].Shadow != nil)
		}
		if hasShadow {
			if err := readResult(&r, k, out[i].Shadow); err != nil {
				return err
			}
		}
	}
	if r.Rem() != 0 {
		return fmt.Errorf("cluster: %d trailing grants bytes", r.Rem())
	}
	return nil
}

// fallback schedules this link's items on the controller with the same
// pure scheduler the node would have used — bit-identical results, so
// degradation changes only where the work ran, never what it produced.
func (l *link) fallback(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) {
	start := telemetry.NowNS()
	for _, i := range l.items {
		req := &reqs[i]
		if req.Mask != nil {
			l.fb.ScheduleMasked(req.Count, req.Occupied, req.Mask, out[i].Res)
			l.fb.Schedule(req.Count, req.Occupied, out[i].Shadow)
		} else {
			l.fb.Schedule(req.Count, req.Occupied, out[i].Res)
		}
		l.ctrl.stats.LocalFallbackItems.Inc()
	}
	if tr := l.ctrl.cfg.Spans; tr != nil {
		lane := 1 + l.id
		tr.Emit(lane, telemetry.Span{Slot: slot, Lane: int32(lane), Stage: telemetry.StageFallback,
			Port: -1, Start: start, Dur: telemetry.NowNS() - start})
	}
}

// reconnect decides whether a downed link should redial this slot, and
// does so. Immediately after a failure the next slot retries once (the
// outage may be transient); after that, probes run every ProbeSlots slots
// so a dead node costs one dial timeout per probe window, not per slot.
func (l *link) reconnect(slot int64) bool {
	if slot < l.nextProbe {
		return false
	}
	if err := l.connect(); err != nil {
		l.nextProbe = slot + int64(l.ctrl.cfg.ProbeSlots)
		return false
	}
	l.ctrl.stats.Reconnects.Inc()
	l.ctrl.logf("node %s: reconnected at slot %d", l.addr, slot)
	return true
}

// connect dials the node and runs the hello/config handshake, each under
// the RPC timeout. On success the link is healthy and configured.
func (l *link) connect() error {
	network, address := wire.SplitAddr(l.addr)
	c, err := net.DialTimeout(network, address, l.ctrl.cfg.RPCTimeout)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(l.ctrl.cfg.RPCTimeout)
	tr := wire.NewConn(c, &proto)
	tr.Faults = l.ctrl.cfg.Faults
	tr.BytesOut = &l.ctrl.stats.BytesSent
	tr.BytesIn = &l.ctrl.stats.BytesReceived
	tr.FramesOut = &l.ctrl.stats.FramesSent
	tr.FramesIn = &l.ctrl.stats.FramesReceived
	l.tr = tr
	nonce := l.rng.Uint64()
	hb := wire.PutU64(nil, nonce)
	ok := false
	defer func() {
		if !ok {
			tr.Close()
			l.tr = nil
		}
	}()
	if err := tr.Send(msgHello, hb); err != nil {
		return err
	}
	payload, err := l.expect(msgHelloAck, nonce, deadline)
	if err != nil {
		return err
	}
	r := wire.NewReader(payload)
	if got := r.U64(); r.Err() != nil || got != nonce {
		return fmt.Errorf("cluster: hello nonce mismatch from %s", l.addr)
	}
	if err := tr.Send(msgConfig, l.ports); err != nil {
		return err
	}
	if _, err := l.expect(msgConfigAck, 0, deadline); err != nil {
		return err
	}
	ok = true
	l.healthy.Store(true)
	return nil
}

// expect reads frames under the given deadline until one of the wanted
// type arrives with the wanted sequence number (when the type carries
// one). Stale frames — duplicated replies to earlier sequence numbers,
// leftover acks — are discarded; a node error frame surfaces as an error.
func (l *link) expect(want uint8, seq uint64, deadline time.Time) ([]byte, error) {
	if err := l.tr.SetReadDeadline(deadline); err != nil {
		return nil, err
	}
	for {
		mt, payload, err := l.tr.Recv()
		if err != nil {
			return nil, err
		}
		switch mt {
		case msgError:
			r := wire.NewReader(payload)
			r.U64()
			return nil, fmt.Errorf("cluster: node %s: %s", l.addr, r.Str())
		case want:
			switch want {
			case msgGrants, msgHelloAck, msgPong:
				r := wire.NewReader(payload)
				if r.U64() != seq || r.Err() != nil {
					continue // stale duplicate
				}
			}
			return payload, nil
		case msgHelloAck, msgConfigAck, msgGrants, msgPong:
			continue // stale frame from an earlier exchange
		default:
			return nil, fmt.Errorf("cluster: unexpected %v from %s", proto.TypeName(mt), l.addr)
		}
	}
}

// encodeConfig builds this link's config frame: the interconnect shape,
// the scheduler name, and the ports striped onto this node.
func (l *link) encodeConfig() []byte {
	cfg := l.ctrl.cfg
	conv := cfg.Conv
	b := wire.PutU32(nil, uint32(cfg.N))
	b = append(b, byte(conv.Kind()))
	b = wire.PutU32(b, uint32(conv.K()))
	b = wire.PutU32(b, uint32(conv.MinusReach()))
	b = wire.PutU32(b, uint32(conv.PlusReach()))
	b = wire.PutString(b, cfg.Scheduler)
	var ports []int
	for o := l.id; o < cfg.N; o += len(cfg.Addrs) {
		ports = append(ports, o)
	}
	b = wire.PutU32(b, uint32(len(ports)))
	for _, o := range ports {
		b = wire.PutU32(b, uint32(o))
	}
	return b
}
