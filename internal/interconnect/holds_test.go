package interconnect

import (
	"fmt"
	"slices"
	"testing"

	"wdmsched/internal/core"
	"wdmsched/internal/fault"
	"wdmsched/internal/traffic"
	"wdmsched/internal/wavelength"
)

// localBatch is an in-process BatchScheduler, so the remote slot path
// (prepare all / schedule all / commit all) can be driven without a
// cluster.
type localBatch struct{ sched core.Scheduler }

func (l localBatch) ScheduleBatch(_ int64, reqs []BatchRequest, out []BatchResult) error {
	for i, r := range reqs {
		if r.Mask == nil {
			l.sched.Schedule(r.Count, r.Occupied, out[i].Res)
			continue
		}
		l.sched.ScheduleMasked(r.Count, r.Occupied, r.Mask, out[i].Res)
		l.sched.Schedule(r.Count, r.Occupied, out[i].Shadow)
	}
	return nil
}

func newLocalBatch(t testing.TB, conv wavelength.Conversion) localBatch {
	t.Helper()
	sched, err := core.NewByName("exact", conv)
	if err != nil {
		t.Fatal(err)
	}
	return localBatch{sched}
}

// handBatch is a BatchScheduler that fills each port's Result by hand, as
// a decoder would: ByOutput, Granted, Size and BreakChannel are copied
// from its own scratch Result and nothing builds the port's channel index.
type handBatch struct {
	sched core.Scheduler
	tmp   *core.Result
}

func (h handBatch) ScheduleBatch(_ int64, reqs []BatchRequest, out []BatchResult) error {
	for i, r := range reqs {
		h.sched.ScheduleMasked(r.Count, r.Occupied, r.Mask, h.tmp)
		out[i].Res.CopyFrom(h.tmp)
		if out[i].Shadow != nil {
			h.sched.Schedule(r.Count, r.Occupied, h.tmp)
			out[i].Shadow.CopyFrom(h.tmp)
		}
	}
	return nil
}

// TestRemoteResultsReindexed: the switch must not trust a channel index a
// batch scheduler never wrote. A run whose decisions arrive as bare
// ByOutput/Granted vectors, with holds and faults so that wrong channels
// would show in occupancy and blocking, matches the sequential engine
// counter for counter, and a decision whose Granted disagrees with its
// ByOutput is refused with a panic.
func TestRemoteResultsReindexed(t *testing.T) {
	const n, k = 6, 16
	conv := circ(k, 2, 2)
	sched, err := core.NewByName("exact", conv)
	if err != nil {
		t.Fatal(err)
	}
	run := func(remote BatchScheduler) *Stats {
		faults, err := fault.NewMarkov(fault.MarkovConfig{
			N: n, K: k, Seed: 3,
			ConverterFail: 0.02, ConverterRepair: 0.2,
			ChannelDark: 0.01, ChannelRestore: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return faultRun(t, Config{N: n, Conv: conv, Seed: 7, ValidateFabric: true,
			Faults: faults, Remote: remote}, 0.9, 300)
	}
	want, got := run(nil), run(handBatch{sched, core.NewResult(k)})
	if got.Fault.LostGrants.Value() == 0 || got.Granted.Value() == 0 {
		t.Fatal("no grants or no fault losses: the run exercises nothing")
	}
	requireStatsEqual(t, "hand-filled remote results", want, got)

	sw := mustSwitch(t, Config{N: n, Conv: conv, Seed: 7, Remote: corruptBatch{}})
	defer sw.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("a Result whose Granted disagrees with ByOutput was committed")
		}
	}()
	_ = sw.RunSlot([]traffic.Packet{{InputFiber: 0, Wavelength: 0, DestFiber: 0, Duration: 1}})
}

// corruptBatch grants every port one request on λ0 without assigning it a
// channel.
type corruptBatch struct{}

func (corruptBatch) ScheduleBatch(_ int64, _ []BatchRequest, out []BatchResult) error {
	for _, o := range out {
		o.Res.Reset()
		o.Res.Granted[0] = 1
		o.Res.Size = 1
	}
	return nil
}

// holdModel is the reference the absolute-stamp hold tables are checked
// against: relative counters aged one slot at a time, the way the switch
// itself kept them before holds became expiry slots. It shares no
// arithmetic with port.go — it only reads each slot's grants and
// preemptees — so an error in the credit / take-back / unelapsed rule
// cannot cancel out of the comparison.
type holdModel struct {
	k       int
	rem     [][]int // [port][channel] slots left to transmit, the coming one included
	src     [][]int // [port][channel] transmitting input channel, fiber*k+wave
	at      []int   // [input channel] 1 + port*k+channel it transmits on, 0 = idle
	busy    []int64 // per channel, summed over ports
	total   int64
	blocked int64
}

func newHoldModel(n, k int) *holdModel {
	m := &holdModel{k: k, at: make([]int, n*k), busy: make([]int64, k)}
	for o := 0; o < n; o++ {
		m.rem = append(m.rem, make([]int, k))
		m.src = append(m.src, make([]int, k))
	}
	return m
}

// admit tallies the packets the coming slot must input-block: those on an
// input channel that is still transmitting.
func (m *holdModel) admit(pkts []traffic.Packet) {
	for _, p := range pkts {
		if m.at[p.InputFiber*m.k+p.Wavelength] != 0 {
			m.blocked++
		}
	}
}

// drop ends input channel in's transmission, which must be on port o, and
// returns the slots it had left.
func (m *holdModel) drop(o, in int) (int, error) {
	loc := m.at[in] - 1
	if loc < 0 || loc/m.k != o {
		return 0, fmt.Errorf("port %d released input channel %d, which holds nothing there (location %d)", o, in, loc)
	}
	left := m.rem[o][loc%m.k]
	m.rem[o][loc%m.k] = 0
	m.at[in] = 0
	return left, nil
}

// step folds in the slot the switch just ran: preempted, killed and
// re-placed connections leave their channels, the slot's grants take
// theirs, and every channel then transmitting is counted busy and aged.
func (m *holdModel) step(sw *Switch) error {
	for o, p := range sw.ports {
		for _, pre := range p.preemptees {
			if _, err := m.drop(o, pre.fiber*m.k+pre.wave); err != nil {
				return err
			}
		}
		for _, g := range sw.results[o] {
			if !g.held {
				continue
			}
			left, err := m.drop(o, g.fiber*m.k+g.wave)
			if err != nil {
				return err
			}
			if left != g.duration {
				return fmt.Errorf("port %d re-placed (%d,λ%d) for %d slots, it had %d left", o, g.fiber, g.wave, g.duration, left)
			}
		}
	}
	for o := range sw.ports {
		for _, g := range sw.results[o] {
			if m.rem[o][g.channel] != 0 {
				return fmt.Errorf("port %d granted channel %d while it transmits for %d more slots", o, g.channel, m.rem[o][g.channel])
			}
			in := g.fiber*m.k + g.wave
			if m.at[in] != 0 {
				return fmt.Errorf("port %d granted input channel %d while it transmits elsewhere", o, in)
			}
			m.rem[o][g.channel] = g.duration
			m.src[o][g.channel] = in
			m.at[in] = 1 + o*m.k + g.channel
		}
	}
	for o := range m.rem {
		for b := range m.rem[o] {
			if m.rem[o][b] == 0 {
				continue
			}
			m.busy[b]++
			m.total++
			if m.rem[o][b]--; m.rem[o][b] == 0 {
				m.at[m.src[o][b]] = 0
			}
		}
	}
	return nil
}

// check compares a Snapshot with the model at the same slot boundary.
func (m *holdModel) check(snap *Snapshot) error {
	if msg := snap.Conserved(); msg != "" {
		return fmt.Errorf("conservation: %s", msg)
	}
	if snap.BusyChannelSlots != m.total {
		return fmt.Errorf("busy channel-slots %d, per-slot model %d", snap.BusyChannelSlots, m.total)
	}
	for b, v := range snap.PerChannel {
		if v != m.busy[b] {
			return fmt.Errorf("channel %d busy %d slots, per-slot model %d", b, v, m.busy[b])
		}
	}
	if snap.InputBlocked != m.blocked {
		return fmt.Errorf("input-blocked %d, per-slot model %d", snap.InputBlocked, m.blocked)
	}
	return nil
}

// holdCase is one configuration of the hold-accounting differential.
type holdCase struct {
	name    string
	n, k    int
	e, f    int
	load    float64
	hold    traffic.HoldingTime
	disturb bool
	faulted bool
	classes int
	engine  string // "", "pool" or "remote"
	seed    uint64
	slots   int
	// What the run must have exercised, or it proves nothing about it: a
	// hold in flight at Finalize, a fault kill, a disturb-mode preemption.
	wantInFlight, wantKill, wantPreempt bool
}

// runHoldCase drives one switch against the per-slot model, comparing at
// every slot boundary, through a Finalize taken while holds are in flight,
// and once more after it.
func runHoldCase(t testing.TB, c holdCase) {
	t.Helper()
	conv, err := wavelength.New(wavelength.Circular, c.k, c.e, c.f)
	if err != nil {
		t.Fatal(err)
	}
	if c.engine == "" {
		c.engine = "sequential"
	}
	cfg := engineConfigs(t, Config{
		N: c.n, Conv: conv, Seed: c.seed, Disturb: c.disturb, PriorityClasses: c.classes,
	})[c.engine]
	if c.faulted {
		inj, err := fault.NewMarkov(fault.MarkovConfig{
			N: c.n, K: c.k, Seed: c.seed + 2,
			ConverterFail: 0.03, ConverterRepair: 0.2,
			ChannelDark: 0.02, ChannelRestore: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = inj
	}
	sw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Finalize()
	gen, err := traffic.NewBernoulli(traffic.Config{N: c.n, K: c.k, Seed: c.seed + 1, Hold: c.hold}, c.load)
	if err != nil {
		t.Fatal(err)
	}
	oneSlot := c.hold.Mean <= 1
	m := newHoldModel(c.n, c.k)
	var (
		buf  []traffic.Packet
		snap Snapshot
	)
	for slot := 0; slot < c.slots; slot++ {
		buf = gen.Generate(slot, buf[:0])
		if c.classes > 1 {
			for i := range buf {
				buf[i].Priority = (buf[i].InputFiber + buf[i].Wavelength + slot) % c.classes
			}
		}
		m.admit(buf)
		if err := sw.RunSlot(buf); err != nil {
			t.Fatal(err)
		}
		if err := m.step(sw); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		sw.Snapshot(&snap)
		if err := m.check(&snap); err != nil {
			t.Fatalf("after slot %d: %v", slot, err)
		}
		for _, p := range sw.ports {
			for b, end := range p.freeAt {
				if end > p.holdUntil {
					t.Fatalf("slot %d port %d: channel %d held until %d, past the port's high-water mark %d",
						slot, p.fiberID, b, end, p.holdUntil)
				}
			}
			if oneSlot && (p.holdUntil > int64(slot)+1 || p.occDirty) {
				t.Fatalf("slot %d port %d: one-slot traffic left holdUntil=%d occDirty=%v; the next slot would sweep",
					slot, p.fiberID, p.holdUntil, p.occDirty)
			}
		}
	}
	inFlight := false
	for _, loc := range m.at {
		inFlight = inFlight || loc != 0
	}
	if c.wantInFlight && !inFlight {
		t.Fatal("no hold in flight at Finalize; the mid-hold merge is not exercised")
	}
	st := sw.Finalize()
	if c.wantKill && st.Fault.KilledConnections.Value() == 0 {
		t.Fatal("no connection was fault-killed; the take-back on kill is not exercised")
	}
	if c.wantPreempt && st.Preempted.Value() == 0 {
		t.Fatal("no connection was preempted; the take-back on requeue is only half exercised")
	}
	if st.BusyChannelSlots.Value() != m.total {
		t.Fatalf("final busy channel-slots %d, per-slot model %d", st.BusyChannelSlots.Value(), m.total)
	}
	for b, v := range st.PerChannelBusy {
		if v != m.busy[b] {
			t.Fatalf("final channel %d busy %d slots, per-slot model %d", b, v, m.busy[b])
		}
	}
	sw.Snapshot(&snap)
	if err := m.check(&snap); err != nil {
		t.Fatalf("after Finalize: %v", err)
	}
}

// TestHoldAccountingAgainstPerSlotModel holds the credit-at-grant,
// take-back-on-release, subtract-unelapsed-on-read accounting to the
// per-slot counting it replaced, in every mode that touches a hold.
func TestHoldAccountingAgainstPerSlotModel(t *testing.T) {
	geo := traffic.HoldingTime{Mean: 3}
	det := traffic.HoldingTime{Mean: 4, Deterministic: true}
	for _, c := range []holdCase{
		{name: "plain/geometric", hold: geo},
		{name: "plain/deterministic", hold: det},
		{name: "plain/pool", hold: geo, engine: "pool"},
		{name: "plain/remote", hold: geo, engine: "remote"},
		{name: "disturb/geometric", hold: geo, disturb: true},
		{name: "disturb/deterministic/pool", hold: det, disturb: true, engine: "pool"},
		{name: "faults/geometric", hold: geo, faulted: true, wantKill: true},
		{name: "faults/deterministic/remote", hold: det, faulted: true, wantKill: true, engine: "remote"},
		{name: "faults/disturb", hold: geo, faulted: true, disturb: true, wantKill: true, wantPreempt: true},
		{name: "qos", hold: geo, classes: 3},
		{name: "qos/faults/pool", hold: geo, classes: 3, faulted: true, wantKill: true, engine: "pool"},
		{name: "one-slot", hold: traffic.HoldingTime{}},
		{name: "one-slot/faults", hold: traffic.HoldingTime{}, faulted: true},
	} {
		c.n, c.k, c.e, c.f = 5, 12, 2, 2
		c.load, c.seed, c.slots = 0.6, 17, 400
		c.wantInFlight = c.hold.Mean > 1
		t.Run(c.name, func(t *testing.T) { runHoldCase(t, c) })
	}
}

// FuzzHoldAccounting runs the same differential over arbitrary shapes. The
// signature is FuzzSeqDistStatsEquivalence's, so the two share a corpus;
// the spare high bits of load8 and hold8 select faults, the engine and
// deterministic durations.
func FuzzHoldAccounting(f *testing.F) {
	f.Add(uint8(4), uint8(6), uint8(1), uint8(1), uint64(7), uint8(80), uint8(0), false)
	f.Add(uint8(8), uint8(8), uint8(2), uint8(3), uint64(42), uint8(100), uint8(3), false)
	f.Add(uint8(6), uint8(5), uint8(0), uint8(2), uint64(99), uint8(50), uint8(2), true)
	f.Add(uint8(5), uint8(7), uint8(1), uint8(2), uint64(3), uint8(90+128), uint8(3+64), false)
	f.Add(uint8(7), uint8(4), uint8(1), uint8(1), uint64(11), uint8(70+128), uint8(2+128), true)
	f.Fuzz(func(t *testing.T, n8, k8, e8, f8 uint8, seed uint64, load8, hold8 uint8, disturb bool) {
		c := holdCase{
			n: int(n8)%8 + 1, k: int(k8)%8 + 1,
			load: float64(load8%101) / 100, faulted: load8 >= 128,
			disturb: disturb, seed: seed, slots: 60,
			engine: []string{"sequential", "pool", "remote", "sequential"}[hold8>>6],
		}
		c.e = int(e8) % c.k
		c.f = int(f8) % (c.k - c.e)
		if hold8%4 > 0 {
			c.hold = traffic.HoldingTime{Mean: float64(hold8%4) + 1, Deterministic: hold8&32 != 0}
		}
		runHoldCase(t, c)
	})
}

// occRecorder wraps a scheduler and records the occupancy argument of
// every call it makes in the current slot (nil stays nil).
type occRecorder struct {
	core.Scheduler
	calls [][]bool
}

func (r *occRecorder) record(occupied []bool) {
	if occupied != nil {
		occupied = append([]bool(nil), occupied...)
	}
	r.calls = append(r.calls, occupied)
}

func (r *occRecorder) Schedule(count []int, occupied []bool, res *core.Result) {
	r.record(occupied)
	r.Scheduler.Schedule(count, occupied, res)
}

func (r *occRecorder) ScheduleMasked(count []int, occupied []bool, mask core.ChannelMask, res *core.Result) {
	r.record(occupied)
	r.Scheduler.ScheduleMasked(count, occupied, mask, res)
}

// TestKernelSeesNilOccupancyWhenNothingHeld: a port hands its kernel nil
// occupancy on a slot with no live hold and the occupancy vector, exactly
// the held channels set, while one lives — including the slot a hold
// expires on, the slot a fault kill empties the port (the sweep then runs
// once more and finds nothing) and, in disturb mode, never anything but
// nil. Without conversion λw lands on channel w, so the held set is known.
func TestKernelSeesNilOccupancyWhenNothingHeld(t *testing.T) {
	const k = 8
	conv := wavelength.MustNew(wavelength.Circular, k, 0, 0)
	pkt := func(w, dur int) []traffic.Packet {
		return []traffic.Packet{{InputFiber: 0, DestFiber: 0, Wavelength: w, Duration: dur}}
	}
	type step struct {
		pkts []traffic.Packet
		held []int // channels the kernel must see occupied; nil wants nil
	}
	steps := []step{
		{pkt(0, 1), nil},
		{pkt(1, 3), nil}, // λ1 holds channel 1 through slot 3
		{pkt(2, 1), []int{1}},
		{pkt(3, 1), []int{1}}, // the last slot of the hold
		{pkt(4, 1), nil},      // expired: the sweep runs and finds nothing
		{pkt(5, 10), nil},     // λ5 holds channel 5 through slot 14
		{pkt(6, 1), []int{5}},
		{pkt(7, 1), nil}, // channel 5 goes dark: the hold is killed
		{pkt(0, 1), nil}, // the kill left holdUntil high: one more sweep
		{pkt(1, 1), nil}, // and then none
	}
	inj, err := fault.NewScript(1, k, []fault.Event{{Slot: 7, Port: 0, Channel: 5, Kind: fault.ChannelDark}})
	if err != nil {
		t.Fatal(err)
	}
	sw := mustSwitch(t, Config{N: 1, Conv: conv, Faults: inj})
	rec := &occRecorder{Scheduler: sw.eng.scheds[0]}
	sw.eng.scheds[0] = rec
	for slot, st := range steps {
		rec.calls = rec.calls[:0]
		if err := sw.RunSlot(st.pkts); err != nil {
			t.Fatal(err)
		}
		if len(rec.calls) == 0 {
			t.Fatalf("slot %d: the kernel was not called", slot)
		}
		var want []bool
		if st.held != nil {
			want = make([]bool, k)
			for _, b := range st.held {
				want[b] = true
			}
		}
		for _, got := range rec.calls {
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("slot %d: kernel saw occupancy %v, want %v", slot, got, want)
			}
		}
	}
	if got := sw.Finalize().Fault.KilledConnections.Value(); got != 1 {
		t.Fatalf("killed connections = %d, want 1", got)
	}

	sw = mustSwitch(t, Config{N: 1, Conv: conv, Disturb: true})
	rec = &occRecorder{Scheduler: sw.eng.scheds[0]}
	sw.eng.scheds[0] = rec
	for slot := range 20 {
		if err := sw.RunSlot(pkt(slot%k, 5)); err != nil {
			t.Fatal(err)
		}
	}
	st := sw.Finalize()
	if st.Granted.Value() == 0 || st.BusyChannelSlots.Value() <= st.Granted.Value() {
		t.Fatalf("disturb run held nothing: granted %d, busy %d", st.Granted.Value(), st.BusyChannelSlots.Value())
	}
	for i, got := range rec.calls {
		if got != nil {
			t.Fatalf("disturb mode: call %d saw occupancy %v, want nil", i, got)
		}
	}
}
