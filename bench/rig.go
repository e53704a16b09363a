package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"wdmsched/bench/stats"
	"wdmsched/internal/cluster"
	"wdmsched/internal/grant"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// window is the pre-generated input of a run: the program only ever sees
// these packets, and every engine sees the same ones in the same order.
type window struct {
	slots   [][]traffic.Packet
	reqs    []grant.Req // the same packets in arrival order, as grant requests (ids assigned at submit)
	packets int
	durSum  int64
	genSlot []float64 // seconds each slot took to generate
}

func (w workloadDef) conv() (wavelength.Conversion, error) {
	return wavelength.New(wavelength.Circular, w.K, w.E, w.F)
}

func (w workloadDef) trafficConfig(seed uint64) traffic.Config {
	return traffic.Config{N: w.N, K: w.K, Seed: seed, Hold: traffic.HoldingTime{Mean: w.HoldMean}}
}

func (w workloadDef) generator(seed uint64) (traffic.Generator, error) {
	if w.Band > 0 {
		return traffic.NewHotBand(w.trafficConfig(seed), w.Load, 0, w.Band)
	}
	return traffic.NewBernoulli(w.trafficConfig(seed), w.Load)
}

// generateWindow pre-generates the slots.
func generateWindow(w workloadDef, seed uint64, slots int) (*window, error) {
	gen, err := w.generator(seed)
	if err != nil {
		return nil, err
	}
	win := &window{slots: make([][]traffic.Packet, slots), genSlot: make([]float64, slots)}
	var buf []traffic.Packet
	for s := range win.slots {
		t0 := time.Now()
		buf = gen.Generate(s, buf[:0])
		win.slots[s] = append([]traffic.Packet(nil), buf...) // exact size: no growth garbage in the peak RSS
		win.genSlot[s] = time.Since(t0).Seconds()
	}
	for _, pkts := range win.slots {
		for _, p := range pkts {
			win.packets++
			win.durSum += int64(p.Duration)
		}
	}
	if win.packets == 0 {
		return nil, errors.New("window holds no packets")
	}
	win.reqs = make([]grant.Req, 0, win.packets)
	for _, pkts := range win.slots {
		for _, p := range pkts {
			win.reqs = append(win.reqs, grant.Req{
				In: uint32(p.InputFiber), Wave: uint16(p.Wavelength), Dest: uint32(p.DestFiber),
				Dur: uint16(min(p.Duration, 1<<15)),
			})
		}
	}
	return win, nil
}

// slotEngine drives one switch configuration through the window, round and
// round, and remembers a snapshot at every pass boundary so engines can be
// compared wherever they both got to.
type slotEngine struct {
	name   string
	sw     *interconnect.Switch
	win    *window
	cursor int
	slots  int64
	passes []interconnect.Snapshot

	// Traced run only: the probe behind the switch and the tracer that
	// records the span tree of every spanEvery-th slot.
	probe *probe
	tr    *tracer
}

// run advances n slots. n divides the window length, so a pass boundary is
// always a call boundary and the snapshot stays outside any timed block.
func (e *slotEngine) run(n int) error {
	for i := 0; i < n; i++ {
		slot := e.slots + int64(i)
		var err error
		if e.tr != nil && slot%spanEvery == 0 {
			sp := e.tr.begin("slot", -1, slot)
			e.probe.parent = e.tr.begin("Switch.RunSlot", sp, slot)
			err = e.sw.RunSlot(e.win.slots[e.cursor+i])
			e.tr.end(e.probe.parent)
			e.probe.parent = -1
			e.tr.end(sp)
		} else {
			err = e.sw.RunSlot(e.win.slots[e.cursor+i])
		}
		if err != nil {
			return fmt.Errorf("%s: slot %d: %w", e.name, slot, err)
		}
	}
	e.slots += int64(n)
	e.cursor += n
	if e.cursor >= len(e.win.slots) {
		e.cursor = 0
		if e.passes == nil {
			e.passes = make([]interconnect.Snapshot, 0, 1<<12)
		}
		// Filled in place: exactly two allocations (its slices) per pass,
		// which the slot timer subtracts from the program's count.
		e.passes = append(e.passes, interconnect.Snapshot{})
		e.sw.Snapshot(&e.passes[len(e.passes)-1])
	}
	return nil
}

// clusterRig is two in-process worker nodes on loopback TCP and the
// controller that shards ports across them.
type clusterRig struct {
	nodes []*cluster.Node
	ctrl  *cluster.Controller
	batch *timedBatch // what the switch calls: ctrl, timed from outside
}

func startCluster(w workloadDef, conv wavelength.Conversion, seed uint64) (*clusterRig, error) {
	r := &clusterRig{}
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		node := cluster.NewNode(cluster.NodeConfig{})
		go node.Serve(ln) // returns when close() closes the node
		r.nodes = append(r.nodes, node)
		addrs = append(addrs, ln.Addr().String())
	}
	// A deadline far above any scheduling stall: a local fallback would be a
	// failed operation, and the workloads are chosen so that none fails.
	ctrl, err := cluster.NewController(cluster.ControllerConfig{
		Addrs: addrs, N: w.N, Conv: conv, Scheduler: "exact", Seed: seed, RPCTimeout: 5 * time.Second,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.ctrl = ctrl
	r.batch = &timedBatch{inner: ctrl}
	return r, nil
}

func (r *clusterRig) close() {
	if r.ctrl != nil {
		r.ctrl.Close()
	}
	for _, n := range r.nodes {
		n.Close()
	}
}

// grantRig is an in-process grant service on loopback TCP and one client
// session.
type grantRig struct {
	svc      *grant.Service
	reg      *telemetry.Registry
	served   chan error
	client   *grant.Client
	nextID   uint64
	ids      idTracker
	tally    verdictTally
	frameBuf []grant.Req
}

// startGrant serves the workload's shape with the exact scheduler and eager
// rounds. queue is the tenant queue bound; the token bucket never limits.
func startGrant(w workloadDef, conv wavelength.Conversion, seed uint64, queue int) (*grantRig, error) {
	reg := telemetry.NewRegistry()
	svc, err := grant.NewService(grant.Config{
		Switch:    interconnect.Config{N: w.N, Conv: conv, Seed: seed},
		Default:   grant.Policy{Rate: 1e12, Burst: 1e9, Queue: queue},
		Telemetry: reg,
		Tool:      "bench",
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &grantRig{svc: svc, reg: reg, served: make(chan error, 1)} // one send, from the Serve goroutine
	go func() { g.served <- svc.Serve(ln) }()
	g.client, err = grant.Dial(ln.Addr().String(), "bench")
	if err != nil {
		svc.Close()
		<-g.served
		return nil, err
	}
	return g, nil
}

// roundTrip submits one frame and waits for all its verdicts. It returns
// the time Submit returned, for the client-side split.
func (g *grantRig) roundTrip(frame []grant.Req) (submitted time.Time, err error) {
	for i := range frame {
		frame[i].ID = g.nextID
		g.nextID++
	}
	g.ids.submitted(len(frame))
	if err := g.client.Submit(frame); err != nil {
		return time.Time{}, err
	}
	submitted = time.Now()
	for got := 0; got < len(frame); {
		ev, err := g.client.Recv()
		if err != nil {
			return submitted, err
		}
		for _, nt := range ev.Notices {
			g.ids.verdict(nt.ID)
			g.tally.note(nt.Verdict)
		}
		got += len(ev.Notices)
		if ev.Ledger != nil || ev.Drain {
			return submitted, errors.New("grant: service ended the session mid-run")
		}
	}
	return submitted, nil
}

// finish closes the session with bye -> ledger, drains the service and
// returns the problems the accounting checks found.
func (g *grantRig) finish(closedLoop bool) []string {
	var problems []string
	var session grant.Ledger
	if err := g.client.Bye(); err != nil {
		problems = append(problems, fmt.Sprintf("grant: bye: %v", err))
	} else {
		g.client.SetRecvDeadline(time.Now().Add(30 * time.Second))
		for {
			ev, err := g.client.Recv()
			if err != nil {
				problems = append(problems, fmt.Sprintf("grant: waiting for the session ledger: %v", err))
				break
			}
			for _, nt := range ev.Notices {
				g.ids.verdict(nt.ID)
				g.tally.note(nt.Verdict)
			}
			if ev.Ledger != nil {
				session = *ev.Ledger
				break
			}
		}
	}
	g.client.Close()
	g.svc.Drain()
	if err := <-g.served; err != nil {
		problems = append(problems, fmt.Sprintf("grant: service stopped on a violation: %v", err))
	}
	problems = append(problems, checkGrantLedger(g.svc.Ledger(), session, g.tally, g.nextID, closedLoop)...)
	return append(problems, g.ids.problems()...)
}

// rig is everything one workload run drives.
type rig struct {
	w       workloadDef
	conv    wavelength.Conversion
	seed    uint64
	win     *window
	engines []*slotEngine // seq, pool, cluster, fast
	cluster *clusterRig
	grant   *grantRig

	poolBusyRatio float64 // EngineStats.Speedup() of the pool engine, known once finalized
}

func (r *rig) engine(name string) *slotEngine {
	for _, e := range r.engines {
		if e.name == name {
			return e
		}
	}
	return nil
}

// setupClock adds up what a set-up costs. A step made of many equal chunks
// (generating the window slot by slot, an engine's warm-up pass block by
// block) counts as chunk count × first quartile of the chunk times, the
// estimator of every other timing here: a throttled phase of the VM inflates
// plain wall time by its stall share, up to 1.7× on the reference box, and
// would move setup_s between identical runs by more than any bound. One-off
// steps (constructors, listeners, the dial, the GC) count as measured.
type setupClock struct{ seconds float64 }

func (c *setupClock) step(f func() error) error {
	t0 := time.Now()
	err := f()
	c.seconds += time.Since(t0).Seconds()
	return err
}

func (c *setupClock) chunks(seconds []float64) {
	c.seconds += float64(len(seconds)) * stats.Typical(seconds)
}

// setup builds the rig and warms it: one full pass of the window on every
// engine (whose snapshots must then agree), a few grant round trips, a GC.
// What that costs, by the set-up clock, is the setup_s metric.
func setup(w workloadDef, seed uint64, windowSlots int, tr *tracer, parent int) (*rig, float64, error) {
	conv, err := w.conv()
	if err != nil {
		return nil, 0, err
	}
	r := &rig{w: w, conv: conv, seed: seed}
	var clock setupClock
	ok := false
	defer func() {
		if !ok {
			r.close()
		}
	}()

	sp := tr.begin("traffic.Generate", parent, -1)
	r.win, err = generateWindow(w, seed, windowSlots)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	clock.chunks(r.win.genSlot)

	if err := clock.step(func() error {
		r.cluster, err = startCluster(w, conv, seed)
		return err
	}); err != nil {
		return nil, 0, err
	}
	for _, c := range []struct {
		name string
		cfg  interconnect.Config
	}{
		{"seq", interconnect.Config{}},
		{"pool", interconnect.Config{Distributed: true}},
		{"cluster", interconnect.Config{Remote: r.cluster.batch}},
		{"fast", interconnect.Config{Scheduler: "fast"}},
	} {
		c.cfg.N, c.cfg.Conv, c.cfg.Seed = w.N, conv, seed
		sp := tr.begin("interconnect.New", parent, -1)
		err := clock.step(func() error {
			sw, err := interconnect.New(c.cfg)
			if err == nil {
				r.engines = append(r.engines, &slotEngine{name: c.name, sw: sw, win: r.win})
			}
			return err
		})
		tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := clock.step(func() error {
		r.grant, err = startGrant(w, conv, seed, 1<<16)
		return err
	}); err != nil {
		return nil, 0, err
	}

	sp = tr.begin("warm-up", parent, -1)
	defer tr.end(sp)
	for _, e := range r.engines {
		blocks := make([]float64, 0, len(r.win.slots)/w.Block)
		for e.slots < int64(len(r.win.slots)) {
			t0 := time.Now()
			if err := e.run(w.Block); err != nil {
				return nil, 0, err
			}
			blocks = append(blocks, time.Since(t0).Seconds())
		}
		clock.chunks(blocks)
	}
	if err := clock.step(func() error {
		for _, n := range []int{1, 256, 1, 256} {
			if _, err := r.grant.roundTrip(r.frame(n, 0)); err != nil {
				return err
			}
		}
		runtime.GC()
		return nil
	}); err != nil {
		return nil, 0, err
	}
	ok = true
	return r, clock.seconds, nil
}

// frame copies the n requests starting at the cursor (wrapping) into the
// rig's reused buffer.
func (r *rig) frame(n, cursor int) []grant.Req {
	g := r.grant
	g.frameBuf = g.frameBuf[:0]
	for i := 0; i < n; i++ {
		g.frameBuf = append(g.frameBuf, r.win.reqs[(cursor+i)%len(r.win.reqs)])
	}
	return g.frameBuf
}

// close stops everything the rig started and waits for it. It returns the
// problems found while shutting down (grant accounting).
func (r *rig) close() []string {
	var problems []string
	if r.grant != nil {
		problems = r.grant.finish(true)
		r.grant = nil
	}
	for _, e := range r.engines {
		st := e.sw.Finalize()
		if e.name == "pool" {
			r.poolBusyRatio = st.Engine.Speedup()
		}
	}
	r.engines = nil
	if r.cluster != nil {
		r.cluster.close()
		r.cluster = nil
	}
	return problems
}
