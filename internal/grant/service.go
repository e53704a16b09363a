package grant

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"wdmsched/internal/interconnect"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wire"
)

// Meta is the JSON-friendly description of a service run, embedded in
// incident reports and bundles (the grant-service twin of soak.Config).
// The command fills the shape/engine fields; the service fills the rest.
type Meta struct {
	N         int               `json:"n"`
	K         int               `json:"k"`
	Kind      string            `json:"kind,omitempty"`
	D         int               `json:"d,omitempty"`
	Scheduler string            `json:"scheduler,omitempty"`
	Selector  string            `json:"selector,omitempty"`
	Seed      uint64            `json:"seed"`
	Engine    string            `json:"engine,omitempty"`
	Classes   int               `json:"classes,omitempty"`
	SlotEvery string            `json:"slot_every,omitempty"`
	Resync    int64             `json:"resync"`
	Default   Policy            `json:"default_policy"`
	Tenants   map[string]Policy `json:"tenants,omitempty"`
}

// Incident is one invariant violation: the service's forensic record,
// written as the JSON report and embedded in the incident bundle.
type Incident struct {
	Invariant string `json:"invariant"`
	Slot      int64  `json:"slot"`
	Detail    string `json:"detail"`
	Wall      string `json:"wall_clock"`
	Config    Meta   `json:"config"`
}

// Config configures a Service.
type Config struct {
	// Switch is the engine configuration. The service owns the switch
	// lifecycle and the Recorder/Telemetry/Trace fields: they must be
	// left nil (the service attaches its own flight recorder, and
	// registers engine statistics on Telemetry below). Disturb, Faults
	// and PriorityClasses-with-preemption are simulation features and
	// are rejected — the grant ledger must partition exactly into
	// granted + rejected.
	Switch interconnect.Config
	// Default is the admission policy for tenants not listed in Tenants.
	Default Policy
	// Tenants maps tenant names to per-tenant policy overrides.
	Tenants map[string]Policy
	// SlotEvery paces scheduling rounds in wall time; 0 runs eagerly (a
	// round whenever requests are queued — virtual slot time).
	SlotEvery time.Duration
	// Resync is the invariant-check cadence in slots (default 1024):
	// every Resync slots the grant ledger is reconciled against an
	// engine Snapshot.
	Resync int64
	// Telemetry, when non-nil, receives the engine's wdm_* series and
	// the service's wdm_grant_* series.
	Telemetry *telemetry.Registry
	// BundlePath is where the incident bundle is dumped on an invariant
	// violation; "" disables bundle dumps.
	BundlePath string
	// Report is where the incident JSON report is written on a
	// violation; "" disables it.
	Report string
	// Tool is the producing-tool name stamped into bundles (default
	// "wdmserve").
	Tool string
	// Meta carries the run description for incidents; shape fields are
	// filled in by the service if left zero.
	Meta Meta
	// Stderr receives diagnostics (default io.Discard).
	Stderr io.Writer
	// MaxSessions caps concurrent client sessions (default 1024).
	MaxSessions int
	// EgressBuffer caps the per-session outbound frame buffer in bytes
	// (default 16 MiB). A client that submits without reading verdicts
	// fills its buffer and is disconnected — the buffering contract is
	// bounded on the way out just like the ingress queues are on the way
	// in, and a slow reader can never stall the round loop.
	EgressBuffer int
}

// request is one admitted connection request waiting for a scheduling
// round. Stored by value in the tenant's preallocated ring so admission
// does not allocate. The three stage stamps carry the request's early
// lifecycle (frame receipt, decode/lock wait, admission slice) into the
// round loop, where settle turns them into the per-stage waterfall.
type request struct {
	id      uint64
	sess    *session
	in      int32
	wave    int32
	dest    int32
	dur     int32
	class   uint8
	recvNS  int64 // receipt stamp on the telemetry span clock
	ingNS   int64 // ingest-stage duration: receipt → admission loop start
	admNS   int64 // admission-stage duration: this request's share of the frame's loop
	admitNS int64 // admission-done stamp, the queue-wait baseline
}

// stageRec is one settled request's stage waterfall, buffered on the
// session alongside the verdict Notice until flushRound can stamp the
// egress stage and observe all six.
type stageRec struct {
	start int64 // receipt stamp (recvNS)
	class uint8
	w     telemetry.StageDurations
}

// tenant is one admission domain: a policy, a token bucket and a
// bounded FIFO ingress queue. All fields are guarded by Service.mu
// except depth, which is an atomic twin of len(q) for telemetry.
type tenant struct {
	name   string
	pol    Policy
	bucket bucket
	q      []request // bounded FIFO; cap == pol.Queue, never grows
	depth  metrics.Gauge
}

// session is one client connection. The ingest goroutine reads frames;
// outbound frames (verdicts from both the ingest path and the round
// loop, drain notices, the final ledger) are appended to the bounded
// egress buffer under wmu and flushed to the socket by a dedicated
// writer goroutine. Producers never block on the socket: a client that
// stops reading fills its egress buffer and is disconnected instead of
// stalling the round loop or Drain.
type session struct {
	tr     *wire.Conn
	tenant *tenant

	wmu       sync.Mutex
	wcond     *sync.Cond // wakes the writer: egress bytes queued or state change
	enc       []byte     // reused frame-payload encode buffer (under wmu)
	out       []byte     // encoded frames awaiting the writer (under wmu)
	outN      int64      // frames in out, for the tx telemetry (under wmu)
	egressMax int        // out bound in bytes; Config.EgressBuffer
	werr      error      // first egress failure: overflow or write error (wmu)
	// closing marks the final frame enqueued: the writer flushes out,
	// half-closes the connection and exits. Set under wmu.
	closing bool
	wdone   chan struct{} // closed when the writer goroutine exits

	iv        []Notice   // ingest-side immediate verdicts (ingest goroutine only)
	pend      []Notice   // round-loop verdicts for this round (round loop only)
	pendStage []stageRec // stage waterfalls, parallel to pend (round loop only)

	inRound     bool // round loop's touched-set membership (round loop only)
	dead        bool // write failed or reader exited; guarded by Service.mu
	deadAtFlush bool // dead as of this round's ledger fold (round loop only)
	finished    bool // final ledger sent; reader now only drains (Service.mu)

	// Session ledger. Every field is updated under Service.mu: the
	// ingest side books submissions and immediate verdicts inline; the
	// round loop books grants/rejects in flushRound's locked section.
	ledger Ledger
}

// Service is the grant server: it owns one switch engine, accepts
// client sessions, batches admitted requests into slot rounds and
// streams verdicts back.
type Service struct {
	cfg Config
	k   int
	sw  *interconnect.Switch
	rec *telemetry.FlightRecorder

	ln     net.Listener
	start  time.Time
	closed chan struct{} // closed exactly once when Serve winds down

	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	order    []*tenant // sorted by (class, arrival); rebuilt on new tenant
	sessions map[*session]struct{}
	draining bool
	stopping bool
	wantDump bool  // asynchronous bundle-dump request (SIGQUIT)
	queued   int64 // total requests across all tenant queues

	// Service-side ledger. submitted/admitted/retried/rejAdmission are
	// ingest-side (under mu); dispatched/granted/rejContention are owned
	// by the round loop.
	submitted     int64
	admitted      int64
	retried       int64
	rejAdmission  int64
	dispatched    int64
	granted       int64
	rejContention int64

	// Round loop state (round-loop goroutine only).
	slot      int64
	tBatch    int64      // batch-build start stamp for the current round
	tEng0     int64      // engine handoff stamp (RunSlot entry)
	tEng1     int64      // engine return stamp (RunSlot exit)
	rr        int        // per-round rotation cursor for intra-class fairness
	holdUntil []int64    // input-channel hold mirror, N*k: the slot each channel's hold ends at
	chUsed    []int64    // round stamp per input channel: chUsed[ch] == slot+1 → taken
	pendReq   []request  // dispatched request per input channel for this round
	pendLive  []int32    // channels dispatched this round
	touched   []*session // sessions with verdicts pending this round
	batch     []traffic.Packet
	grants    []interconnect.SlotGrant
	perInput  []int64 // grants per input fiber, the Snapshot.PerInput mirror
	snap      interconnect.Snapshot
	// The round's latency and stage samples, published to the histograms
	// below once per round by flushRound.
	latencyAcc metrics.DurationBatch
	stageAcc   [telemetry.NumGrantStages]metrics.DurationBatch

	// Telemetry.
	latency                                *metrics.DurationHistogram
	stages                                 [telemetry.NumGrantStages]*metrics.DurationHistogram
	verdicts                               [8]metrics.Counter // indexed by Verdict
	rounds                                 metrics.Counter
	sessionsGauge                          metrics.Gauge
	bytesIn, bytesOut, framesIn, framesOut metrics.Counter

	incident *Incident
}

// NewService validates cfg, builds the switch engine (attaching a
// flight recorder) and returns a service ready to Serve.
func NewService(cfg Config) (*Service, error) {
	if cfg.Switch.Disturb {
		return nil, errors.New("grant: disturb mode is a simulation feature; the grant ledger requires stable grants")
	}
	if cfg.Switch.Faults != nil {
		return nil, errors.New("grant: fault injection is not supported in the grant service (ledger must partition exactly)")
	}
	if cfg.Switch.Recorder != nil || cfg.Switch.Trace != nil {
		return nil, errors.New("grant: Switch.Recorder/Trace are owned by the service; leave them nil")
	}
	if err := cfg.Default.validate(); err != nil {
		return nil, fmt.Errorf("default policy: %w", err)
	}
	for name, pol := range cfg.Tenants {
		if err := pol.validate(); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", name, err)
		}
	}
	if cfg.Resync <= 0 {
		cfg.Resync = 1024
	}
	if cfg.Tool == "" {
		cfg.Tool = "wdmserve"
	}
	if cfg.Stderr == nil {
		cfg.Stderr = io.Discard
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1024
	}
	if cfg.EgressBuffer <= 0 {
		cfg.EgressBuffer = defaultEgressBuffer
	}

	k := cfg.Switch.Conv.K()
	n := cfg.Switch.N
	rec := telemetry.NewFlightRecorder(telemetry.FlightRecorderConfig{
		Ports:          n,
		SnapshotEvery:  cfg.Resync,
		ExemplarWindow: cfg.Resync,
	})
	cfg.Switch.Recorder = rec
	cfg.Switch.Telemetry = cfg.Telemetry
	sw, err := interconnect.New(cfg.Switch)
	if err != nil {
		return nil, err
	}

	s := &Service{
		cfg:       cfg,
		k:         k,
		sw:        sw,
		rec:       rec,
		closed:    make(chan struct{}),
		tenants:   map[string]*tenant{},
		sessions:  map[*session]struct{}{},
		holdUntil: make([]int64, n*k),
		chUsed:    make([]int64, n*k),
		pendReq:   make([]request, n*k),
		pendLive:  make([]int32, 0, n*k),
		batch:     make([]traffic.Packet, 0, n*k),
		grants:    make([]interconnect.SlotGrant, 0, n*k),
		perInput:  make([]int64, n),
		latency:   metrics.NewDurationHistogram(),
	}
	for st := range s.stages {
		s.stages[st] = metrics.NewDurationHistogram()
	}
	s.cond = sync.NewCond(&s.mu)

	// Fill the incident metadata the service can derive itself.
	if s.cfg.Meta.N == 0 {
		s.cfg.Meta.N = n
	}
	if s.cfg.Meta.K == 0 {
		s.cfg.Meta.K = k
	}
	s.cfg.Meta.Seed = cfg.Switch.Seed
	s.cfg.Meta.Resync = cfg.Resync
	s.cfg.Meta.Default = cfg.Default
	if len(cfg.Tenants) > 0 {
		s.cfg.Meta.Tenants = cfg.Tenants
	}
	if cfg.SlotEvery > 0 {
		s.cfg.Meta.SlotEvery = cfg.SlotEvery.String()
	}

	if reg := cfg.Telemetry; reg != nil {
		// The switch registers its own wdm_* series (including the
		// recorder's health counters) when built with cfg.Switch.Telemetry
		// set; only the grant-layer series are registered here.
		reg.DurationHistogram("wdm_grant_latency_seconds",
			"End-to-end grant latency: request receipt to verdict emission.", nil, s.latency)
		for st := range s.stages {
			reg.DurationHistogram("wdm_grant_stage_seconds",
				"Per-stage grant-path latency; every round-settled request is observed into each stage exactly once.",
				[]telemetry.Label{{Key: "stage", Value: telemetry.GrantStageNames[st]}}, s.stages[st])
		}
		reg.Counter("wdm_grant_rounds_total", "Scheduling rounds (slots) run by the grant service.", nil, &s.rounds)
		reg.CounterFunc("wdm_grant_submitted_total", "Requests submitted on the grant wire.", nil,
			func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.submitted })
		reg.CounterFunc("wdm_grant_admitted_total", "Requests admitted into tenant ingress queues.", nil,
			func() int64 { s.mu.Lock(); defer s.mu.Unlock(); return s.admitted })
		reg.Gauge("wdm_grant_sessions", "Connected client sessions.", nil, &s.sessionsGauge)
		reg.Counter("wdm_grant_rx_bytes_total", "Bytes received on the grant wire.", nil, &s.bytesIn)
		reg.Counter("wdm_grant_tx_bytes_total", "Bytes sent on the grant wire.", nil, &s.bytesOut)
		reg.Counter("wdm_grant_rx_frames_total", "Frames received on the grant wire.", nil, &s.framesIn)
		reg.Counter("wdm_grant_tx_frames_total", "Frames sent on the grant wire.", nil, &s.framesOut)
		for _, v := range []Verdict{VerdictGranted, VerdictRejected, VerdictRejectedAdmission,
			VerdictRetryBucket, VerdictRetryQueue, VerdictRetryDrain} {
			reg.Counter("wdm_grant_verdicts_total", "Request verdicts by disposition.",
				[]telemetry.Label{{Key: "verdict", Value: v.String()}}, &s.verdicts[v])
		}
		telemetry.RegisterSLO(reg, "grant", s.latency, 10*time.Millisecond, 0.99)
	}
	return s, nil
}

// Recorder exposes the service's flight recorder (for SIGQUIT dump
// requests and tests).
func (s *Service) Recorder() *telemetry.FlightRecorder { return s.rec }

// Ledger returns the service-wide ledger. Safe to call concurrently;
// the round-loop counters are read at whatever round boundary last
// completed (they are folded in under the service mutex in flushRound).
func (s *Service) Ledger() Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledgerLocked()
}

func (s *Service) ledgerLocked() Ledger {
	return Ledger{
		Submitted: uint64(s.submitted),
		Admitted:  uint64(s.admitted),
		Granted:   uint64(s.granted),
		Rejected:  uint64(s.rejContention + s.rejAdmission),
		Retried:   uint64(s.retried),
	}
}

// Slots returns the rounds run so far.
func (s *Service) Slots() int64 { return s.rounds.Value() }

// Draining reports whether the service has stopped admitting — either a
// graceful Drain has begun or the service is stopping. The /readyz
// probe keys off this so load balancers route away before the listener
// goes down.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.stopping
}

// Incident returns the invariant violation that stopped the service, or
// nil after a clean run.
func (s *Service) Incident() *Incident { return s.incident }

// Drain begins a graceful drain: stop admitting (new submissions get
// RETRY-AFTER drain verdicts), flush everything already queued through
// scheduling rounds, send every session its final ledger, and return
// from Serve. Idempotent and safe from a signal handler.
func (s *Service) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.wmu.Lock()
		sess.enc = wire.PutString(sess.enc[:0], "draining: server stopped admitting; queued requests will still be answered")
		err := sess.enqueueLocked(msgDrain, sess.enc)
		sess.wmu.Unlock()
		if err != nil {
			s.killSession(sess)
		}
	}
}

// Serve accepts sessions on ln and runs scheduling rounds until Drain
// completes (returns nil) or an invariant violation stops the service
// (returns the violation). It blocks; callers drive Drain from a signal
// handler or another goroutine.
func (s *Service) Serve(ln net.Listener) error {
	s.ln = ln
	s.start = time.Now()
	go s.acceptLoop(ln)
	err := s.roundLoop()
	close(s.closed)
	ln.Close()
	s.finishSessions(err == nil)
	// Finalize merges engine counters and joins worker pools; the final
	// Snapshot was already reconciled by the round loop.
	s.sw.Finalize()
	return err
}

func (s *Service) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
			default:
				fmt.Fprintf(s.cfg.Stderr, "%s: accept: %v\n", s.cfg.Tool, err)
			}
			return
		}
		go s.serveSession(c)
	}
}

// serveSession runs one client connection: handshake, then the ingest
// loop. It owns all reads; writes go through sess.write.
func (s *Service) serveSession(c net.Conn) {
	tr := wire.NewConn(c, &proto)
	tr.BytesIn, tr.BytesOut = &s.bytesIn, &s.bytesOut
	tr.FramesIn, tr.FramesOut = &s.framesIn, &s.framesOut
	sess := &session{tr: tr, egressMax: s.cfg.EgressBuffer}
	sess.wcond = sync.NewCond(&sess.wmu)

	mt, payload, err := tr.Recv()
	if err != nil {
		tr.Close()
		return
	}
	if mt != msgHello {
		s.sessionError(sess, fmt.Sprintf("first frame must be hello, got %v", proto.TypeName(mt)))
		tr.Close()
		return
	}
	r := wire.NewReader(payload)
	nonce := r.U64()
	name := r.Str()
	if r.Err() != nil || name == "" {
		s.sessionError(sess, "malformed hello")
		tr.Close()
		return
	}

	s.mu.Lock()
	if s.draining || s.stopping {
		s.mu.Unlock()
		s.sessionError(sess, "server is draining")
		tr.Close()
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.sessionError(sess, "session limit reached")
		tr.Close()
		return
	}
	t := s.tenantLocked(name)
	sess.tenant = t
	s.sessions[sess] = struct{}{}
	s.sessionsGauge.Set(float64(len(s.sessions)))
	s.mu.Unlock()

	sess.wmu.Lock()
	sess.enc = encHelloAck(sess.enc[:0], nonce, s.cfg.Switch.N, s.k, t.pol)
	err = tr.Send(msgHelloAck, sess.enc)
	if err == nil {
		// From here on every outbound frame goes through the egress
		// buffer; the writer goroutine owns the socket's write side.
		sess.wdone = make(chan struct{})
		go s.sessionWriter(sess)
	}
	sess.wmu.Unlock()
	if err != nil {
		s.killSession(sess)
		return
	}

	for {
		mt, payload, err := tr.Recv()
		if err != nil {
			s.killSession(sess)
			return
		}
		// Frame-receipt stamp: the ingest stage starts here, before any
		// lock waits or decode work.
		recvNS := telemetry.NowNS()
		s.mu.Lock()
		fin := sess.finished
		s.mu.Unlock()
		if fin {
			// The final ledger is out and the write side is half-closed:
			// discard whatever the client still had in flight. The read
			// deadline set by finishSessions bounds this drain.
			continue
		}
		switch mt {
		case msgSubmit:
			ok, werr := s.ingestFrame(sess, payload, recvNS)
			if !ok {
				s.sessionError(sess, "malformed submit")
				s.finishSession(sess)
				return
			}
			if werr != nil {
				s.killSession(sess)
				return
			}
		case msgBye:
			// The client promises it has collected every verdict; echo
			// the session ledger, flush and close.
			s.mu.Lock()
			l := sess.ledger
			s.mu.Unlock()
			sess.wmu.Lock()
			sess.enc = encLedger(sess.enc[:0], l)
			if sess.enqueueLocked(msgLedger, sess.enc) == nil {
				sess.closing = true
				sess.wcond.Signal()
			}
			sess.wmu.Unlock()
			s.finishSession(sess)
			return
		default:
			s.sessionError(sess, fmt.Sprintf("unexpected frame %v", proto.TypeName(mt)))
			s.finishSession(sess)
			return
		}
	}
}

// tenantLocked finds or creates a tenant. Caller holds s.mu.
func (s *Service) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	pol, ok := s.cfg.Tenants[name]
	if !ok {
		pol = s.cfg.Default
	}
	t := &tenant{
		name:   name,
		pol:    pol,
		bucket: newBucket(pol.Rate, pol.Burst),
		q:      make([]request, 0, pol.Queue),
	}
	s.tenants[name] = t
	s.order = append(s.order, t)
	sort.SliceStable(s.order, func(i, j int) bool { return s.order[i].pol.Class < s.order[j].pol.Class })
	if reg := s.cfg.Telemetry; reg != nil {
		reg.Gauge("wdm_grant_queue_depth", "Queued requests per tenant.",
			[]telemetry.Label{{Key: "tenant", Value: name}}, &t.depth)
	}
	return t
}

// ingest decodes one submit frame and runs admission for each request:
// admitted requests enter the tenant queue; everything else gets an
// immediate verdict appended to sess.iv. Returns false on a malformed
// frame. This is the wire-facing hot path: steady-state it allocates
// nothing (bounded queue, reused verdict buffer), and its bookkeeping is
// per frame, not per request — one clock read either side of the
// admission loop, one queue-depth store, one add per verdict kind.
func (s *Service) ingest(sess *session, payload []byte, recvNS int64) bool {
	r := wire.NewReader(payload)
	count := int(r.U32())
	if r.Err() != nil || count < 0 || count > maxBatch || r.Rem() != count*submitItemLen {
		return false
	}
	n, k := s.cfg.Switch.N, s.k
	t := sess.tenant
	sess.iv = sess.iv[:0]

	s.mu.Lock()
	if sess.finished {
		// Final ledger already sent (drain completed between the client
		// writing this frame and us reading it): discard without booking,
		// so the ledger frame stays the session's last word.
		s.mu.Unlock()
		return true
	}
	// Stage clock: everything between frame receipt and here — header
	// decode, the session write lock, the service lock wait — is the
	// frame's ingest stage. The same stamp is the token buckets' now.
	admStart := telemetry.NowNS()
	head := len(t.q) // the frame's admitted requests are t.q[head:]
	var immediate [len(s.verdicts)]int64
	done := 0 // requests booked; short of count only on a malformed item
	for ; done < count; done++ {
		id := r.U64()
		in := r.U32()
		wave := r.U16()
		dest := r.U32()
		dur := r.U16()
		// Range-check the unsigned wire values before narrowing: an
		// in or dest ≥ 2^31 would wrap negative in int32.
		if uint64(in) >= uint64(n) || uint64(dest) >= uint64(n) || int(wave) >= k || dur < 1 {
			break
		}
		s.submitted++
		sess.ledger.Submitted++
		verdict, wait := s.admitLocked(t, admStart)
		if verdict == 0 {
			// admitNS carries the request's position in the frame until
			// stampAdmission turns it into a stamp below.
			t.q = append(t.q, request{
				id: id, sess: sess, in: int32(in), wave: int32(wave), dest: int32(dest), dur: int32(dur),
				class: uint8(t.pol.Class), recvNS: recvNS, admitNS: int64(done),
			})
			continue
		}
		if verdict == VerdictRejectedAdmission {
			s.rejAdmission++
			sess.ledger.Rejected++
		} else {
			s.retried++
			sess.ledger.Retried++
		}
		immediate[verdict]++
		sess.iv = append(sess.iv, Notice{ID: id, Verdict: verdict, Slot: -1, Channel: -1, WaitMS: wait})
	}
	admEnd := telemetry.NowNS()
	if enqueued := int64(len(t.q) - head); enqueued > 0 {
		stampAdmission(t.q[head:], nonneg(admStart-recvNS), admStart, nonneg(admEnd-admStart), int64(done))
		t.depth.Set(float64(len(t.q)))
		s.admitted += enqueued
		sess.ledger.Admitted += uint64(enqueued)
		s.queued += enqueued
		if s.cfg.SlotEvery == 0 {
			s.cond.Signal()
		}
	}
	s.mu.Unlock()
	for v, c := range immediate {
		if c > 0 {
			s.verdicts[v].Add(c)
		}
	}
	if done < count {
		return false
	}
	if len(sess.iv) > 0 {
		// Immediate verdicts are emitted as the admission loop ends.
		var b metrics.DurationBatch
		b.AddN(time.Duration(admEnd-recvNS), int64(len(sess.iv)))
		s.latency.Merge(&b)
	}
	return true
}

// stampAdmission gives the requests one frame just enqueued their stage
// stamps. The admission loop is timed once per frame, so its wall time is
// split evenly over the frame's booked requests, the remainder going to
// the last: a request's admission stage is its share and its
// admission-done stamp (the queue-wait baseline) the end of that share,
// so over a frame the admission durations sum to the loop's wall time
// exactly. Each request arrives with its frame position in admitNS.
func stampAdmission(reqs []request, ingNS, admStart, wall, booked int64) {
	share := wall / booked
	for i := range reqs {
		req := &reqs[i]
		pos := req.admitNS
		req.ingNS, req.admNS, req.admitNS = ingNS, share, admStart+(pos+1)*share
		if pos == booked-1 {
			req.admNS += wall % booked
			req.admitNS = admStart + wall
		}
	}
}

// admitLocked runs one request through admission control. It returns
// verdict 0 when the request should be queued, or the immediate verdict
// plus RETRY-AFTER hint. Caller holds s.mu.
func (s *Service) admitLocked(t *tenant, nowNS int64) (Verdict, uint32) {
	if s.draining || s.stopping {
		return VerdictRetryDrain, drainRetryMS
	}
	if t.pol.Rate == 0 {
		return VerdictRejectedAdmission, 0
	}
	if ok, wait := t.bucket.take(nowNS); !ok {
		return VerdictRetryBucket, wait
	}
	if len(t.q) >= t.pol.Queue {
		// Backpressure: the queue bound is the buffering contract. The
		// hint is the time the backlog needs to drain at the admitted
		// rate — monotone in the backlog, so well-behaved clients back
		// off harder the fuller the queue. The spent token is returned:
		// the request was not admitted.
		t.bucket.tokens++
		return VerdictRetryQueue, retryAfterMS(float64(len(t.q)), t.pol.Rate)
	}
	return 0, 0
}

// drainRetryMS is the RETRY-AFTER hint handed to submissions that race a
// drain: long enough that a well-behaved client redirects elsewhere.
const drainRetryMS = 5000

// ingestFrame runs one submit frame — admission booking plus the
// immediate-verdict enqueue — entirely under the session write lock.
// That makes the frame atomic with respect to finishSessions'
// final-ledger enqueue: the ledger either includes this frame's requests
// and follows their verdicts in the egress buffer, or excludes them and
// the frame is discarded; the ledger frame is always the session's last.
func (s *Service) ingestFrame(sess *session, payload []byte, recvNS int64) (ok bool, werr error) {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	if !s.ingest(sess, payload, recvNS) {
		return false, nil
	}
	if len(sess.iv) == 0 {
		return true, nil
	}
	return true, s.writeVerdictsLocked(sess, sess.iv)
}

// writeVerdicts encodes and enqueues one verdicts frame under the
// session write lock.
func (s *Service) writeVerdicts(sess *session, notices []Notice) error {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	return s.writeVerdictsLocked(sess, notices)
}

// writeVerdictsLocked is writeVerdicts with sess.wmu already held.
func (s *Service) writeVerdictsLocked(sess *session, notices []Notice) error {
	b := wire.PutU32(sess.enc[:0], uint32(len(notices)))
	for _, nt := range notices {
		b = wire.PutU64(b, nt.ID)
		b = append(b, byte(nt.Verdict))
		b = wire.PutI64(b, nt.Slot)
		b = wire.PutI16(b, nt.Channel)
		b = wire.PutU32(b, nt.WaitMS)
	}
	sess.enc = b
	return sess.enqueueLocked(msgVerdicts, b)
}

// defaultEgressBuffer bounds a session's outbound frame backlog: verdicts
// for a client that has stopped reading accumulate here (never in a
// blocked goroutine) until the bound trips and the session is killed.
const defaultEgressBuffer = 16 << 20

// sessionWriteTimeout bounds any single socket write by the session
// writer. A connection that accepts no bytes for this long is as good as
// gone; the writer kills the session rather than linger.
const sessionWriteTimeout = 10 * time.Second

var errEgressOverflow = errors.New("grant: egress buffer overflow (client is not reading verdicts)")
var errSessionClosing = errors.New("grant: session closing")

// enqueueLocked appends one encoded frame to the session's egress buffer
// and wakes the writer. Caller holds sess.wmu. It never blocks: a buffer
// past the bound fails the session instead, so no producer — ingest,
// round loop or Drain — can be stalled by a slow client.
func (sess *session) enqueueLocked(mt uint8, payload []byte) error {
	if sess.werr != nil {
		return sess.werr
	}
	if sess.closing {
		return errSessionClosing
	}
	if len(payload) > proto.MaxPayload {
		return fmt.Errorf("grant: payload %d exceeds limit", len(payload))
	}
	sess.out = proto.AppendFrame(sess.out, mt, payload)
	sess.outN++
	if len(sess.out) > sess.egressMax {
		sess.werr = errEgressOverflow
	}
	sess.wcond.Signal()
	return sess.werr
}

// sessionWriter owns the socket's write side for one session: it swaps
// the egress buffer out under wmu and flushes it outside any lock, so a
// blocked write never holds wmu. On the closing flag it flushes the
// final (ledger) frame, half-closes the connection — a full close would
// RST away a racing submit frame and destroy the client's unread ledger
// — bounds the reader's drain with a deadline, and exits.
func (s *Service) sessionWriter(sess *session) {
	defer close(sess.wdone)
	var buf []byte
	for {
		sess.wmu.Lock()
		for len(sess.out) == 0 && sess.werr == nil && !sess.closing {
			sess.wcond.Wait()
		}
		if sess.werr != nil {
			sess.wmu.Unlock()
			sess.tr.Close()
			return
		}
		closing := sess.closing
		frames := sess.outN
		sess.outN = 0
		buf, sess.out = sess.out, buf[:0]
		sess.wmu.Unlock()

		if len(buf) > 0 {
			sess.tr.SetWriteDeadline(time.Now().Add(sessionWriteTimeout))
			if err := sess.tr.WriteFrames(buf, frames); err != nil {
				sess.wmu.Lock()
				if sess.werr == nil {
					sess.werr = err
				}
				sess.wmu.Unlock()
				sess.tr.Close()
				return
			}
		}
		if closing {
			if sess.tr.CloseWrite() != nil {
				sess.tr.Close()
			} else {
				sess.tr.SetReadDeadline(time.Now().Add(2 * time.Second))
			}
			return
		}
	}
}

// sessionError sends a best-effort error frame. Before the session's
// writer starts (handshake failures) the frame is written directly — the
// handshake goroutine is the only writer then; afterwards it is enqueued
// as the session's final frame and flushed by the writer on its way out.
func (s *Service) sessionError(sess *session, msg string) {
	sess.wmu.Lock()
	sess.enc = wire.PutString(sess.enc[:0], msg)
	if sess.wdone == nil {
		sess.tr.Send(msgError, sess.enc)
	} else if sess.enqueueLocked(msgError, sess.enc) == nil {
		sess.closing = true
		sess.wcond.Signal()
	}
	sess.wmu.Unlock()
}

// finishSession waits for the session writer to flush its final frame
// and exit (bounded by the write timeout), then closes the connection.
func (s *Service) finishSession(sess *session) {
	if sess.wdone != nil {
		<-sess.wdone
	}
	s.killSession(sess)
}

// killSession removes the session, closes its connection and fails its
// writer. Queued requests from the session still schedule; their
// verdicts are dropped.
func (s *Service) killSession(sess *session) {
	s.mu.Lock()
	if !sess.dead {
		sess.dead = true
		delete(s.sessions, sess)
		s.sessionsGauge.Set(float64(len(s.sessions)))
	}
	s.mu.Unlock()
	sess.tr.Close()
	sess.wmu.Lock()
	if sess.werr == nil {
		sess.werr = net.ErrClosed
	}
	sess.wcond.Signal()
	sess.wmu.Unlock()
}

// roundLoop is the scheduling heart: build a batch (strict priority by
// class, FIFO per tenant, at most one request per input channel), run
// one engine slot, match grants back to requests, emit verdicts, and
// reconcile the ledger every Resync slots.
func (s *Service) roundLoop() error {
	for {
		s.mu.Lock()
		if s.cfg.SlotEvery == 0 {
			for !s.draining && !s.stopping && !s.wantDump && s.queued == 0 {
				s.cond.Wait()
			}
		}
		if s.stopping {
			s.mu.Unlock()
			return nil
		}
		if s.wantDump {
			s.wantDump = false
			s.mu.Unlock()
			s.dumpAsync()
			continue
		}
		if s.draining && s.queued == 0 {
			err := s.reconcile()
			s.mu.Unlock()
			return err
		}
		s.buildBatchLocked()
		s.mu.Unlock()

		if err := s.runRound(); err != nil {
			return err
		}

		if s.cfg.SlotEvery > 0 {
			time.Sleep(s.cfg.SlotEvery)
		}
	}
}

// Close stops the service without draining: in-flight requests are
// abandoned. Intended for tests and hard shutdown paths.
func (s *Service) Close() {
	s.mu.Lock()
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
}

// buildBatchLocked drains dispatchable requests out of the tenant
// queues into s.batch. Strict priority: tenants are scanned in class
// order (s.order is class-sorted); within a class the start tenant
// rotates per round. Per tenant, FIFO order with head-of-line skip: a
// request whose input channel is held or already taken this round stays
// queued without blocking the requests behind it. Caller holds s.mu.
func (s *Service) buildBatchLocked() {
	s.tBatch = telemetry.NowNS() // queue-wait ends / round-batch begins here
	k := s.k
	s.batch = s.batch[:0]
	s.pendLive = s.pendLive[:0]
	stamp := s.slot + 1 // chUsed entries from earlier rounds are stale
	s.rr++

	for lo := 0; lo < len(s.order); {
		hi := lo + 1
		for hi < len(s.order) && s.order[hi].pol.Class == s.order[lo].pol.Class {
			hi++
		}
		seg := hi - lo
		for i := 0; i < seg; i++ {
			t := s.order[lo+(i+s.rr)%seg]
			if len(t.q) == 0 {
				continue
			}
			kept := t.q[:0]
			for _, req := range t.q {
				ch := req.in*int32(k) + req.wave
				if s.holdUntil[ch] > s.slot || s.chUsed[ch] == stamp {
					kept = append(kept, req)
					continue
				}
				s.chUsed[ch] = stamp
				s.pendReq[ch] = req
				s.pendLive = append(s.pendLive, ch)
				prio := 0
				if s.cfg.Switch.PriorityClasses > 1 {
					prio = int(req.class)
					if prio >= s.cfg.Switch.PriorityClasses {
						prio = s.cfg.Switch.PriorityClasses - 1
					}
				}
				s.batch = append(s.batch, traffic.Packet{
					InputFiber: int(req.in), Wavelength: int(req.wave),
					DestFiber: int(req.dest), Duration: int(req.dur),
					Slot: int(s.slot), Priority: prio,
				})
			}
			s.queued -= int64(len(t.q) - len(kept))
			t.q = kept
			t.depth.Set(float64(len(t.q)))
		}
		lo = hi
	}
	s.dispatched += int64(len(s.batch))
}

// runRound runs one engine slot over the built batch and settles every
// dispatched request as granted or rejected.
func (s *Service) runRound() error {
	s.tEng0 = telemetry.NowNS()
	if err := s.sw.RunSlot(s.batch); err != nil {
		return s.violation("engine", fmt.Sprintf("RunSlot: %v", err))
	}
	s.tEng1 = telemetry.NowNS()
	s.slot++
	s.rounds.Inc()

	now := s.tEng1
	var granted, rejected int64
	s.grants = s.sw.LastGrants(s.grants[:0])
	for _, g := range s.grants {
		ch := int32(g.InputFiber*s.k + g.Wavelength)
		req := s.pendReq[ch]
		s.pendReq[ch].sess = nil    // drop the reference; the slot settles below
		if s.chUsed[ch] != s.slot { // stamp was slot+1 pre-increment
			return s.violation("ledger", fmt.Sprintf(
				"engine granted channel (%d,λ%d) that was not dispatched this round", g.InputFiber, g.Wavelength))
		}
		s.chUsed[ch] = 0
		// Mirror the engine's input table: the round just run was slot
		// s.slot-1, and the channel is held until that slot plus Duration.
		s.holdUntil[ch] = s.slot - 1 + int64(g.Duration)
		granted++
		s.perInput[g.InputFiber]++
		s.settle(req, Notice{
			ID: req.id, Verdict: VerdictGranted, Slot: s.slot - 1,
			Channel: int16(g.Channel),
		}, now)
	}
	// Everything dispatched but not granted lost the output contention.
	for _, ch := range s.pendLive {
		if s.chUsed[ch] != s.slot {
			continue // granted above
		}
		s.chUsed[ch] = 0
		req := s.pendReq[ch]
		s.pendReq[ch].sess = nil
		rejected++
		s.settle(req, Notice{
			ID: req.id, Verdict: VerdictRejected, Slot: s.slot - 1, Channel: -1,
		}, now)
	}
	s.flushRound(granted, rejected)
	if s.slot%s.cfg.Resync == 0 {
		s.mu.Lock()
		err := s.reconcile()
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// settle books one terminal verdict for a dispatched request onto its
// session's round buffer, along with the stage waterfall computed from
// the request's stamps and the round's batch/engine stamps. The egress
// stage is stamped later, in flushRound. Ledger folding happens in
// flushRound too.
func (s *Service) settle(req request, nt Notice, nowNS int64) {
	s.latencyAcc.Add(time.Duration(nowNS - req.recvNS))
	rec := stageRec{start: req.recvNS, class: req.class}
	rec.w[telemetry.StageIngest] = req.ingNS
	rec.w[telemetry.StageAdmission] = req.admNS
	rec.w[telemetry.StageQueueWait] = nonneg(s.tBatch - req.admitNS)
	rec.w[telemetry.StageRoundBatch] = nonneg(s.tEng0 - s.tBatch)
	rec.w[telemetry.StageEngineSchedule] = nonneg(s.tEng1 - s.tEng0)
	sess := req.sess
	if !sess.inRound {
		sess.inRound = true
		s.touched = append(s.touched, sess)
	}
	sess.pend = append(sess.pend, nt)
	sess.pendStage = append(sess.pendStage, rec)
}

// nonneg clamps clock skew between stamps to zero.
func nonneg(ns int64) int64 {
	if ns < 0 {
		return 0
	}
	return ns
}

// flushRound folds the round's tallies into the service and session
// ledgers under the mutex, then writes every touched session's verdicts
// frame outside it. After each session's frame lands in its egress
// buffer the egress stage is stamped and the full waterfall is
// accumulated for the stage histograms and offered to the exemplar ring
// — dead sessions included (their verdicts have nowhere to go, but the
// ledger booked them, and the stage counts must keep partitioning exactly
// like the ledger does). The round's verdict counts, latencies and stage
// durations are published last, back to back and in one step per series,
// so a scrape mid-round sees the previous round in all of them.
func (s *Service) flushRound(granted, rejected int64) {
	s.mu.Lock()
	s.granted += granted
	s.rejContention += rejected
	for _, sess := range s.touched {
		for _, nt := range sess.pend {
			if nt.Verdict == VerdictGranted {
				sess.ledger.Granted++
			} else {
				sess.ledger.Rejected++
			}
		}
		sess.deadAtFlush = sess.dead
	}
	s.mu.Unlock()
	ex := s.rec.Exemplars()
	for _, sess := range s.touched {
		sess.inRound = false
		var werr error
		if !sess.deadAtFlush && len(sess.pend) > 0 {
			werr = s.writeVerdicts(sess, sess.pend)
		}
		if len(sess.pend) > 0 {
			end := telemetry.NowNS()
			eg := nonneg(end - s.tEng1)
			tname := sess.tenant.name
			offers := ex.Begin()
			for i := range sess.pend {
				rec := &sess.pendStage[i]
				rec.w[telemetry.StageEgressWrite] = eg
				for st, ns := range rec.w {
					s.stageAcc[st].Add(time.Duration(ns))
				}
				nt := &sess.pend[i]
				offers.Offer(telemetry.Exemplar{
					ID: nt.ID, Tenant: tname, Class: rec.class, Slot: nt.Slot,
					Verdict: nt.Verdict.String(), StartNS: rec.start,
					TotalNS: nonneg(end - rec.start), Stages: rec.w,
				})
			}
			offers.End()
		}
		sess.pend = sess.pend[:0]
		sess.pendStage = sess.pendStage[:0]
		if werr != nil {
			s.killSession(sess)
		}
	}
	s.touched = s.touched[:0]

	if granted > 0 {
		s.verdicts[VerdictGranted].Add(granted)
	}
	if rejected > 0 {
		s.verdicts[VerdictRejected].Add(rejected)
	}
	s.latency.Merge(&s.latencyAcc)
	for st := range s.stages {
		s.stages[st].Merge(&s.stageAcc[st])
	}
}

// reconcile checks the grant ledger against a live engine Snapshot: the
// service's own counters must match the engine's byte for byte, the
// engine must never have input-blocked a packet (the hold mirror exists
// to guarantee it), and the service-level accounting must partition.
// Caller holds s.mu (freezing ingestion) and must be at a round
// boundary.
func (s *Service) reconcile() error {
	s.sw.Snapshot(&s.snap)
	if msg := s.snap.Conserved(); msg != "" {
		return s.violationLocked("conservation", msg)
	}
	if s.snap.Slots != s.slot {
		return s.violationLocked("ledger", fmt.Sprintf("engine ran %d slots, service ran %d rounds", s.snap.Slots, s.slot))
	}
	if s.snap.InputBlocked != 0 {
		return s.violationLocked("ledger", fmt.Sprintf(
			"engine input-blocked %d packets; the hold mirror must prevent dispatch onto held channels", s.snap.InputBlocked))
	}
	if s.snap.Offered != s.dispatched {
		return s.violationLocked("ledger", fmt.Sprintf("engine offered %d != service dispatched %d", s.snap.Offered, s.dispatched))
	}
	if s.snap.Granted != s.granted {
		return s.violationLocked("ledger", fmt.Sprintf("engine granted %d != service granted %d", s.snap.Granted, s.granted))
	}
	if s.snap.OutputDropped != s.rejContention {
		return s.violationLocked("ledger", fmt.Sprintf("engine dropped %d != service contention-rejected %d", s.snap.OutputDropped, s.rejContention))
	}
	for f := range s.perInput {
		if s.snap.PerInput[f] != s.perInput[f] {
			return s.violationLocked("ledger", fmt.Sprintf(
				"input fiber %d: engine granted %d != service granted %d", f, s.snap.PerInput[f], s.perInput[f]))
		}
	}
	if s.submitted != s.admitted+s.retried+s.rejAdmission {
		return s.violationLocked("admission", fmt.Sprintf(
			"submitted %d != admitted %d + retried %d + admission-rejected %d",
			s.submitted, s.admitted, s.retried, s.rejAdmission))
	}
	if s.admitted != s.dispatched+s.queued {
		return s.violationLocked("admission", fmt.Sprintf(
			"admitted %d != dispatched %d + queued %d", s.admitted, s.dispatched, s.queued))
	}
	return nil
}

// violation records the incident, writes the report and incident bundle
// and returns the error that stops Serve. Mirrors soak.Harness.violation.
func (s *Service) violation(invariant, detail string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.violationLocked(invariant, detail)
}

func (s *Service) violationLocked(invariant, detail string) error {
	inc := &Incident{
		Invariant: invariant,
		Slot:      s.slot,
		Detail:    detail,
		Wall:      time.Since(s.start).String(),
		Config:    s.cfg.Meta,
	}
	s.incident = inc
	s.stopping = true
	if s.cfg.Report != "" {
		if raw, err := json.MarshalIndent(inc, "", "  "); err == nil {
			if werr := os.WriteFile(s.cfg.Report, append(raw, '\n'), 0o644); werr != nil {
				fmt.Fprintf(s.cfg.Stderr, "%s: writing incident report: %v\n", s.cfg.Tool, werr)
			}
		}
	}
	if s.cfg.BundlePath != "" {
		if err := s.dumpBundle(s.cfg.BundlePath, "violation", inc, s.ledgerLocked()); err != nil {
			fmt.Fprintf(s.cfg.Stderr, "%s: dumping incident bundle: %v\n", s.cfg.Tool, err)
		} else {
			fmt.Fprintf(s.cfg.Stderr, "%s: incident bundle: %s\n", s.cfg.Tool, s.cfg.BundlePath)
		}
	}
	fmt.Fprintf(s.cfg.Stderr, "%s: INVARIANT VIOLATION [%s] slot %d: %s\n",
		s.cfg.Tool, inc.Invariant, inc.Slot, inc.Detail)
	return fmt.Errorf("grant: invariant violation [%s] slot %d: %s", inc.Invariant, inc.Slot, inc.Detail)
}

// dumpBundle writes the service's incident bundle: run metadata, the
// incident, the nearest pre-violation counter snapshot and the flight
// recorder's rings — the single-engine form of soak.DumpBundle, so
// server-side violations inherit the same forensics format.
func (s *Service) dumpBundle(path, trigger string, inc *Incident, ledger Ledger) error {
	start := time.Now()
	w := telemetry.NewBundleWriter(s.cfg.Tool, trigger, s.slot)
	if err := w.AddJSON("config.json", s.cfg.Meta); err != nil {
		return err
	}
	if inc != nil {
		if err := w.AddJSON("incident.json", inc); err != nil {
			return err
		}
		if pre := s.rec.NearestSnapshotBefore(inc.Slot - 1); pre != nil {
			if err := w.AddJSON("presnap.json", pre); err != nil {
				return err
			}
		}
	}
	if err := w.AddFunc("decisions.jsonl", s.rec.Decisions().WriteJSONL); err != nil {
		return err
	}
	if err := w.AddFunc("snapshots.jsonl", s.rec.WriteSnapshotsJSONL); err != nil {
		return err
	}
	if err := w.AddFunc("faults.jsonl", s.rec.WriteFaultsJSONL); err != nil {
		return err
	}
	if err := w.AddFunc("exemplars.jsonl", s.rec.Exemplars().WriteJSONL); err != nil {
		return err
	}
	if err := w.AddJSON("ledger.json", ledger); err != nil {
		return err
	}
	if err := w.WriteFile(path); err != nil {
		return err
	}
	s.rec.NoteDump(time.Since(start))
	return nil
}

// DumpBundle writes a requested (non-violation) flight-recorder bundle.
// Safe only at a round boundary; live servers use RequestDump instead,
// which routes the dump through the round loop.
func (s *Service) DumpBundle(path, trigger string) error {
	return s.dumpBundle(path, trigger, nil, s.Ledger())
}

// RequestDump asks the round loop to write a flight-recorder bundle at
// the next round boundary (the wdmserve SIGQUIT handshake — the run
// continues). Safe from a signal handler; a no-op when BundlePath is
// unset.
func (s *Service) RequestDump() {
	s.mu.Lock()
	s.wantDump = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// dumpAsync writes a requested bundle next to BundlePath with a
// -sigquit-<slot> suffix so it never clobbers a later violation bundle.
func (s *Service) dumpAsync() {
	if s.cfg.BundlePath == "" {
		return
	}
	path := suffixPath(s.cfg.BundlePath, fmt.Sprintf("-sigquit-%d", s.slot))
	if err := s.DumpBundle(path, "sigquit"); err != nil {
		fmt.Fprintf(s.cfg.Stderr, "%s: dumping requested bundle: %v\n", s.cfg.Tool, err)
		return
	}
	fmt.Fprintf(s.cfg.Stderr, "%s: flight-recorder bundle (run continues): %s\n", s.cfg.Tool, path)
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

// finishSessions sends every remaining session its final ledger (clean
// drains only) and closes the connections.
func (s *Service) finishSessions(clean bool) {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		if clean {
			// wmu before mu: the write lock makes the ledger snapshot
			// atomic with in-flight ingestFrame calls (same order there),
			// so the ledger frame is always the last frame in the egress
			// buffer — and therefore the last on the wire. The writer
			// goroutine flushes it, half-closes the connection and bounds
			// the reader's drain of racing submit frames with a deadline.
			sess.wmu.Lock()
			s.mu.Lock()
			l := sess.ledger
			sess.finished = true
			s.mu.Unlock()
			sess.enc = encLedger(sess.enc[:0], l)
			err := sess.enqueueLocked(msgLedger, sess.enc)
			if err == nil {
				sess.closing = true
				sess.wcond.Signal()
			}
			sess.wmu.Unlock()
			if err == nil {
				continue
			}
		}
		s.killSession(sess)
	}
}
