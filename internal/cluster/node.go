package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wavelength"
	"wdmsched/internal/wire"
)

// NodeConfig tunes a worker node.
type NodeConfig struct {
	// Logf, when non-nil, receives one line per session event (open,
	// configure, close). Nil disables logging.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, receives the node's own wdm_node_* series
	// (frame/byte counters, decode/schedule/encode latency histograms,
	// per-port busy gauges) — served by wdmnode on its -http address.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, records node-side spans: frame decode and
	// reply encode on lane 0, each port's schedule computation on lane
	// 1+local-index. Dump with WriteSpans and merge with the controller
	// dump via wdmtrace -merge.
	Spans *telemetry.SpanTracer
}

// Node is a cluster worker: it hosts the schedulers for its assigned
// output ports and answers the controller's per-slot schedule RPCs. A
// node is stateless between slots — every request carries the full
// scheduling instance — so controllers may reconnect, replay or duplicate
// requests freely.
type Node struct {
	cfg NodeConfig

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool

	nm      nodeMetrics
	busy    map[int]*metrics.Counter // cumulative busy ns per global port
	lastRun atomic.Uint64            // run ID of the last schedule frame served
}

// nodeMetrics is the node's own observability: written on the session hot
// paths (plain atomics, allocation-free), surfaced as wdm_node_* series
// when NodeConfig.Telemetry is set.
type nodeMetrics struct {
	framesIn, framesOut metrics.Counter
	bytesIn, bytesOut   metrics.Counter
	sessions            metrics.Counter
	scheduleFrames      metrics.Counter
	scheduledItems      metrics.Counter
	decode              *metrics.DurationHistogram
	schedule            *metrics.DurationHistogram
	encode              *metrics.DurationHistogram
}

// NewNode builds a node. When cfg.Telemetry is set, the wdm_node_* series
// are registered immediately (per-port busy gauges appear lazily as
// controllers assign ports).
func NewNode(cfg NodeConfig) *Node {
	n := &Node{cfg: cfg, conns: make(map[net.Conn]struct{}), busy: make(map[int]*metrics.Counter)}
	n.nm.decode = metrics.NewDurationHistogram()
	n.nm.schedule = metrics.NewDurationHistogram()
	n.nm.encode = metrics.NewDurationHistogram()
	if r := cfg.Telemetry; r != nil {
		r.CounterFunc("wdm_node_frames_received_total", "Frames read from controller sessions.", nil, n.nm.framesIn.Value)
		r.CounterFunc("wdm_node_frames_sent_total", "Frames written to controller sessions.", nil, n.nm.framesOut.Value)
		r.CounterFunc("wdm_node_bytes_received_total", "Bytes read from controller sessions, framing included.", nil, n.nm.bytesIn.Value)
		r.CounterFunc("wdm_node_bytes_sent_total", "Bytes written to controller sessions, framing included.", nil, n.nm.bytesOut.Value)
		r.CounterFunc("wdm_node_sessions_total", "Controller sessions accepted.", nil, n.nm.sessions.Value)
		r.CounterFunc("wdm_node_schedule_frames_total", "Schedule frames served.", nil, n.nm.scheduleFrames.Value)
		r.CounterFunc("wdm_node_scheduled_items_total", "Port-slot scheduling decisions computed.", nil, n.nm.scheduledItems.Value)
		r.DurationHistogram("wdm_node_decode_seconds", "Schedule frame decode time.", nil, n.nm.decode)
		r.DurationHistogram("wdm_node_schedule_seconds", "Per-port matching computation time.", nil, n.nm.schedule)
		r.DurationHistogram("wdm_node_encode_seconds", "Grants reply encode time.", nil, n.nm.encode)
	}
	return n
}

// StartLoopback serves count in-process nodes on ephemeral 127.0.0.1 TCP
// ports — the -nodes cluster of the command-line tools — and returns them
// with their addresses in order. newConfig, when non-nil, builds each
// node's configuration. The caller closes the nodes; on an error the ones
// already started are closed.
func StartLoopback(count int, newConfig func() NodeConfig) ([]*Node, []string, error) {
	nodes := make([]*Node, 0, count)
	addrs := make([]string, 0, count)
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, node := range nodes {
				node.Close()
			}
			return nil, nil, err
		}
		var cfg NodeConfig
		if newConfig != nil {
			cfg = newConfig()
		}
		node := NewNode(cfg)
		go node.Serve(ln)
		nodes = append(nodes, node)
		addrs = append(addrs, ln.Addr().String())
	}
	return nodes, addrs, nil
}

// portBusy returns (registering on first use) the cumulative busy-time
// counter for a global output port assigned to this node.
func (n *Node) portBusy(port int) *metrics.Counter {
	n.mu.Lock()
	defer n.mu.Unlock()
	if c, ok := n.busy[port]; ok {
		return c
	}
	c := new(metrics.Counter)
	n.busy[port] = c
	if r := n.cfg.Telemetry; r != nil {
		r.GaugeFunc("wdm_node_port_busy_seconds", "Cumulative matching-computation time for this assigned port.",
			[]telemetry.Label{{Key: "port", Value: strconv.Itoa(port)}},
			func() float64 { return float64(c.Value()) / 1e9 })
	}
	return c
}

// WriteSpans dumps the node's span dump: a meta line (role, last run ID)
// followed by the retained spans as JSONL — one node's half of a
// wdmtrace -merge input set, served by wdmnode on /spans.
func (n *Node) WriteSpans(w io.Writer) error {
	if n.cfg.Spans == nil {
		return errors.New("cluster: node has no span tracer")
	}
	if _, err := fmt.Fprintf(w, `{"meta":{"role":"node","run_id":%d}}`+"\n", n.lastRun.Load()); err != nil {
		return err
	}
	return n.cfg.Spans.WriteJSONL(w)
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// Serve accepts controller sessions on l until Close. Each session runs
// on its own goroutine; Serve returns nil after Close, or the first
// accept error otherwise.
func (n *Node) Serve(l net.Listener) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return errors.New("cluster: node closed")
	}
	n.ln = l
	n.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return nil
		}
		n.conns[c] = struct{}{}
		n.mu.Unlock()
		go n.handle(c)
	}
}

// Close stops the listener and tears down every active session.
func (n *Node) Close() error {
	n.mu.Lock()
	n.closed = true
	ln := n.ln
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return err
}

// handle runs one controller session to completion.
func (n *Node) handle(c net.Conn) {
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.conns, c)
		n.mu.Unlock()
	}()
	tr := wire.NewConn(c, &proto)
	tr.BytesIn = &n.nm.bytesIn
	tr.BytesOut = &n.nm.bytesOut
	tr.FramesIn = &n.nm.framesIn
	tr.FramesOut = &n.nm.framesOut
	s := &session{tr: tr, logf: n.logf, node: n, spans: n.cfg.Spans}
	n.nm.sessions.Inc()
	n.logf("session open from %v", c.RemoteAddr())
	if err := s.run(); err != nil && !errors.Is(err, io.EOF) {
		n.logf("session from %v ended: %v", c.RemoteAddr(), err)
		return
	}
	n.logf("session from %v closed", c.RemoteAddr())
}

// session is one controller's view of the node: one scheduler for all of
// its assigned ports plus per-port input/result buffers, all preallocated
// at configure time so the schedule hot path does not allocate. A batch
// runs in one loop on the session goroutine, port by port in wire order,
// so one scheduler serves every port (a scheduler keeps no state between
// calls): the nodes already run in parallel, and a per-port goroutine wake
// costs more than most ports' scheduling.
type session struct {
	tr    *wire.Conn
	logf  func(format string, args ...any)
	node  *Node                 // nil in bare protocol tests
	spans *telemetry.SpanTracer // nil when tracing is off

	configured bool
	nports, k  int
	conv       wavelength.Conversion
	ports      []int // assigned global port IDs
	idx        []int32

	// timed gates the hot-path clock reads: set at configure time when any
	// consumer (metrics, busy counters, spans) exists.
	timed bool
	busy  []*metrics.Counter // per local port, nil without telemetry

	sched    core.Scheduler
	count    [][]int
	occupied [][]bool
	mask     []core.ChannelMask
	maskOn   []bool
	res      []*core.Result
	shadow   []*core.Result

	active []int  // local indices in the current batch, wire order
	pbuf   []byte // reply payload build buffer
}

// run is the session frame loop.
func (s *session) run() error {
	for {
		mt, payload, err := s.tr.Recv()
		if err != nil {
			var verr *wire.VersionError
			if errors.As(err, &verr) {
				// Tell the peer why it is being rejected, framed in ITS
				// version so an old controller can decode the message
				// (the error payload layout is identical in v1 and v2).
				b := wire.PutU64(nil, 0)
				b = wire.PutString(b, verr.Error())
				peer := proto
				peer.Version = verr.Peer
				_ = s.tr.WriteFrames(peer.AppendFrame(nil, msgError, b), 1)
			}
			return err
		}
		switch mt {
		case msgHello:
			r := wire.NewReader(payload)
			nonce := r.U64()
			if r.Err() != nil {
				return s.protoErr(0, "malformed hello")
			}
			s.pbuf = wire.PutU64(s.pbuf[:0], nonce)
			if err := s.tr.Send(msgHelloAck, s.pbuf); err != nil {
				return err
			}
		case msgConfig:
			if err := s.configure(payload); err != nil {
				if serr := s.sendError(0, err.Error()); serr != nil {
					return serr
				}
				return fmt.Errorf("cluster: rejected config: %w", err)
			}
			if err := s.tr.Send(msgConfigAck, nil); err != nil {
				return err
			}
		case msgSchedule:
			if !s.configured {
				return s.protoErr(0, "schedule before config")
			}
			reply, err := s.handleSchedule(payload)
			if err != nil {
				if serr := s.sendError(0, err.Error()); serr != nil {
					return serr
				}
				return err
			}
			if err := s.tr.Send(msgGrants, reply); err != nil {
				return err
			}
		case msgPing:
			r := wire.NewReader(payload)
			seq := r.U64()
			s.pbuf = wire.PutU64(s.pbuf[:0], seq)
			if err := s.tr.Send(msgPong, s.pbuf); err != nil {
				return err
			}
		default:
			return s.protoErr(0, "unexpected "+proto.TypeName(mt))
		}
	}
}

func (s *session) sendError(seq uint64, msg string) error {
	b := wire.PutU64(nil, seq)
	b = wire.PutString(b, msg)
	return s.tr.Send(msgError, b)
}

func (s *session) protoErr(seq uint64, msg string) error {
	if err := s.sendError(seq, msg); err != nil {
		return err
	}
	return errors.New("cluster: protocol violation: " + msg)
}

// configure parses a config frame and builds the session's scheduler and
// buffers. Reconfiguration replaces both.
func (s *session) configure(payload []byte) error {
	r := wire.NewReader(payload)
	n := int(r.U32())
	kind := wavelength.Kind(r.U8())
	k := int(r.U32())
	e := int(r.U32())
	f := int(r.U32())
	schedName := r.Str()
	nPorts := int(r.U32())
	if r.Err() != nil {
		return r.Err()
	}
	if n <= 0 || n > maxPorts {
		return fmt.Errorf("cluster: ports %d outside (0, %d]", n, maxPorts)
	}
	if k <= 0 || k > maxWavelengths {
		return fmt.Errorf("cluster: wavelengths %d outside (0, %d]", k, maxWavelengths)
	}
	if n > 0xffff {
		// Request counts travel as u16; a fiber cannot offer more than one
		// request per input fiber per wavelength.
		return fmt.Errorf("cluster: ports %d exceed u16 request-count range", n)
	}
	if nPorts <= 0 || nPorts > n {
		return fmt.Errorf("cluster: assigned port count %d outside (0, %d]", nPorts, n)
	}
	var conv wavelength.Conversion
	var err error
	if kind == wavelength.Full {
		conv, err = wavelength.New(wavelength.Full, k, 0, 0)
	} else {
		conv, err = wavelength.New(kind, k, e, f)
	}
	if err != nil {
		return err
	}
	ports := make([]int, nPorts)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
	}
	for i := range ports {
		p := int(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if p < 0 || p >= n {
			return fmt.Errorf("cluster: assigned port %d outside [0, %d)", p, n)
		}
		if idx[p] != -1 {
			return fmt.Errorf("cluster: port %d assigned twice", p)
		}
		ports[i] = p
		idx[p] = int32(i)
	}
	if r.Rem() != 0 {
		return fmt.Errorf("cluster: %d trailing config bytes", r.Rem())
	}

	sched, err := core.NewByName(schedName, conv)
	if err != nil {
		return err
	}

	s.configured = true
	s.nports, s.k, s.conv = n, k, conv
	s.ports, s.idx, s.sched = ports, idx, sched
	s.busy = nil
	if s.node != nil && s.node.cfg.Telemetry != nil {
		s.busy = make([]*metrics.Counter, nPorts)
		for i, p := range ports {
			s.busy[i] = s.node.portBusy(p)
		}
	}
	if s.spans != nil {
		s.spans.EnsureLanes(1 + nPorts)
	}
	s.timed = s.node != nil || s.spans != nil
	s.count = make([][]int, nPorts)
	s.occupied = make([][]bool, nPorts)
	s.mask = make([]core.ChannelMask, nPorts)
	s.maskOn = make([]bool, nPorts)
	s.res = make([]*core.Result, nPorts)
	s.shadow = make([]*core.Result, nPorts)
	s.active = make([]int, 0, nPorts)
	for i := 0; i < nPorts; i++ {
		s.count[i] = make([]int, k)
		s.occupied[i] = make([]bool, k)
		s.mask[i] = make(core.ChannelMask, k)
		s.res[i] = core.NewResult(k)
		s.shadow[i] = core.NewResult(k)
	}
	s.logf("configured: %d of %d ports, k=%d, scheduler %s (%v)",
		nPorts, n, k, schedName, conv)
	return nil
}

// compute runs one port's scheduling instance: the masked decision plus
// the healthy-graph shadow matching when a fault mask is active, exactly
// as the in-process port does.
func (s *session) compute(li int) {
	if s.maskOn[li] {
		s.sched.ScheduleMasked(s.count[li], s.occupied[li], s.mask[li], s.res[li])
		s.sched.Schedule(s.count[li], s.occupied[li], s.shadow[li])
	} else {
		s.sched.Schedule(s.count[li], s.occupied[li], s.res[li])
	}
}

// handleSchedule decodes a schedule frame into the per-port input buffers,
// schedules the batch's ports, and encodes the grants reply.
// Allocation-free in steady state: every buffer it touches is preallocated
// at configure time and reused. The reply carries the span clock stamps
// t1..t4 (receipt, decode done, schedule done, reply encoded); t4 is
// patched in after encoding so it covers the encode itself.
func (s *session) handleSchedule(payload []byte) ([]byte, error) {
	t1 := telemetry.NowNS()
	r := wire.NewReader(payload)
	seq := r.U64()
	slot := r.U64()
	run := r.U64()
	span := r.U64()
	r.I64() // t0: controller send stamp, on the controller's clock
	items := int(r.U32())
	if r.Err() != nil {
		return nil, r.Err()
	}
	if items < 0 || items > len(s.ports) {
		return nil, fmt.Errorf("cluster: %d items for %d assigned ports", items, len(s.ports))
	}
	s.active = s.active[:0]
	for i := 0; i < items; i++ {
		port := int(r.U32())
		if r.Err() != nil {
			return nil, r.Err()
		}
		if port < 0 || port >= s.nports || s.idx[port] < 0 {
			return nil, fmt.Errorf("cluster: port %d not assigned here", port)
		}
		li := int(s.idx[port])
		cnt := s.count[li]
		for w := 0; w < s.k; w++ {
			cnt[w] = int(r.U16())
		}
		readOccupied(&r, s.occupied[li])
		s.maskOn[li] = false
		if r.U8() != 0 {
			mb := r.Bytes(s.k)
			if mb != nil {
				m := s.mask[li]
				for b := 0; b < s.k; b++ {
					st := core.ChannelState(mb[b])
					if st > core.Dark {
						return nil, fmt.Errorf("cluster: invalid channel state %d", mb[b])
					}
					m[b] = st
				}
				s.maskOn[li] = true
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		// Reject a port repeated within one batch via the active list
		// (items ≤ assigned ports keeps this O(items²) scan trivial).
		for _, prev := range s.active {
			if prev == li {
				return nil, fmt.Errorf("cluster: port %d repeated in batch", port)
			}
		}
		s.active = append(s.active, li)
	}
	if r.Rem() != 0 {
		return nil, fmt.Errorf("cluster: %d trailing schedule bytes", r.Rem())
	}
	t2 := telemetry.NowNS()
	if s.node != nil {
		s.node.lastRun.Store(run)
		s.node.nm.scheduleFrames.Inc()
		s.node.nm.scheduledItems.Add(int64(len(s.active)))
		s.node.nm.decode.Observe(time.Duration(t2 - t1))
	}

	// Schedule the batch in wire order on this goroutine.
	for _, li := range s.active {
		if !s.timed {
			s.compute(li)
			continue
		}
		start := telemetry.NowNS()
		s.compute(li)
		dur := telemetry.NowNS() - start
		if s.node != nil {
			s.node.nm.schedule.Observe(time.Duration(dur))
		}
		if s.busy != nil {
			s.busy[li].Add(dur)
		}
		if s.spans != nil {
			s.spans.Emit(1+li, telemetry.Span{Slot: int64(slot), Lane: int32(1 + li),
				Stage: telemetry.StageSchedule, Port: int32(s.ports[li]),
				ID: span, Start: start, Dur: dur})
		}
	}
	t3 := telemetry.NowNS()

	// Encode the reply in request order.
	b := s.pbuf[:0]
	b = wire.PutU64(b, seq)
	b = wire.PutU64(b, slot)
	b = wire.PutU64(b, span)
	b = wire.PutI64(b, t1)
	b = wire.PutI64(b, t2)
	b = wire.PutI64(b, t3)
	b = wire.PutI64(b, 0) // t4, patched below once encoding is done
	b = wire.PutU32(b, uint32(len(s.active)))
	for _, li := range s.active {
		b = wire.PutU32(b, uint32(s.ports[li]))
		b = appendResult(b, s.res[li])
		if s.maskOn[li] {
			b = append(b, 1)
			b = appendResult(b, s.shadow[li])
		} else {
			b = append(b, 0)
		}
	}
	t4 := telemetry.NowNS()
	wire.PatchU64(b, grantsT4Off, uint64(t4))
	s.pbuf = b
	if s.node != nil {
		s.node.nm.encode.Observe(time.Duration(t4 - t3))
	}
	if s.spans != nil {
		s.spans.Emit(0, telemetry.Span{Slot: int64(slot), Stage: telemetry.StageDecode,
			Port: -1, ID: span, Start: t1, Dur: t2 - t1})
		s.spans.Emit(0, telemetry.Span{Slot: int64(slot), Stage: telemetry.StageNodeEncode,
			Port: -1, ID: span, Start: t3, Dur: t4 - t3})
	}
	return b, nil
}

// appendResult encodes one scheduling decision: size, break channel and
// the channel→wavelength assignment. Granted counts are re-derived on
// decode, halving the frame size.
func appendResult(b []byte, res *core.Result) []byte {
	b = wire.PutU16(b, uint16(res.Size))
	b = wire.PutI16(b, int16(res.BreakChannel))
	for _, w := range res.ByOutput {
		b = wire.PutI16(b, int16(w))
	}
	return b
}

// readResult decodes an appendResult encoding into res (pre-sized to k),
// rebuilding the Granted counts and validating internal consistency.
func readResult(r *wire.Reader, k int, res *core.Result) error {
	size := int(r.U16())
	brk := int(r.I16())
	res.Reset()
	res.BreakChannel = brk
	got := 0
	for b := 0; b < k; b++ {
		w := int(r.I16())
		if w == core.Unassigned {
			continue
		}
		if w < 0 || w >= k {
			return fmt.Errorf("cluster: channel %d assigned invalid wavelength %d", b, w)
		}
		res.ByOutput[b] = w
		res.Granted[w]++
		got++
	}
	if r.Err() != nil {
		return r.Err()
	}
	if got != size {
		return fmt.Errorf("cluster: result size %d but %d assignments", size, got)
	}
	if brk != core.Unassigned && (brk < 0 || brk >= k) {
		return fmt.Errorf("cluster: break channel %d outside [0, %d)", brk, k)
	}
	res.Size = size
	return nil
}
