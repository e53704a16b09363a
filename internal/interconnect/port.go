package interconnect

import (
	"fmt"
	"slices"

	"wdmsched/internal/core"
	"wdmsched/internal/fabric"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wavelength"
)

// portRequest is one request pending at an output port in the current
// slot: either a new arrival or, in disturb mode, a held connection being
// rescheduled. key names its chain, the wavelength (class·k + wavelength
// in QoS mode), and next the following request on that chain in the order
// they were filed: an index into outputPort.reqs, or −1.
type portRequest struct {
	fiber, key, next int32
	held             bool
	duration         int // for held requests: remaining slots including this one
}

// portGrant is one connection switched by a port this slot.
type portGrant struct {
	fiber    int
	wave     int
	channel  int
	duration int
	held     bool // re-placement of an existing connection
}

// heldConn is who transmits on a held channel: the two fields of the
// portGrant that fault kills and disturb-mode requeues read back.
type heldConn struct {
	fiber, wave int32
}

// outputPort is the per-output-fiber scheduling pipeline: request lists
// → request vector → scheduler (the paper's distributed algorithm) → fair
// selection → channel hold bookkeeping. Each port is independent of every
// other port (the paper's Section I partition argument), which is what
// makes the distributed mode race-free. The port holds no scheduler: the
// crew member that claims it for a slot lends it one (engine.run), since a
// scheduler carries no state from one fiber's call to the next.
type outputPort struct {
	fiberID int
	k       int
	conv    wavelength.Conversion
	sel     fabric.Selector
	disturb bool

	// Decision tracing (Config.Trace): nil disables tracing entirely —
	// every emission site is guarded by a nil check so the disabled path
	// stays allocation-free and branch-predictable. slot is the current
	// slot number, written by the switch before the per-port fan-out.
	tracer *telemetry.DecisionTracer
	slot   int64

	// QoS mode (classes > 1): strict-priority scheduling of per-class
	// request vectors (paper Section VI future work). Mutually exclusive
	// with disturb mode.
	classes  int
	counts   [][]int        // [class][wavelength]
	results  []*core.Result // per class
	clsOff   []int64
	clsGrant []int64

	count []int
	// occupied is this slot's occupancy vector, valid after prepare; anyHeld
	// reports whether any entry of it is set. The kernel is handed nil
	// instead when none is (the Scheduler contract's all-free), which
	// spares it a pass over k false entries.
	occupied []bool
	res      *core.Result // nil in QoS mode, which schedules into results
	anyReqs  bool         // any requests this slot (arrivals or disturb requeues)
	anyHeld  bool
	// waveMark flags the wavelengths holding requests this slot, in any
	// class: threading sets it, and the commit expansion walks it and
	// empties those wavelengths' chains behind it, so neither sweeps all k.
	waveMark *fabric.BitVector

	// Fault injection (Config.Faults): mask is this slot's channel-state
	// view, written by the switch before the per-port fan-out (nil when
	// the port is fully healthy, which keeps the exact maskless path).
	// shadow holds the healthy-graph matching of the same instance, so
	// lost grants are attributable to the faults rather than to load; it
	// and shadows exist only when the switch injects faults.
	mask        core.ChannelMask
	shadow      *core.Result
	shadows     []*core.Result // per class, QoS mode
	faultLost   int64
	faultKilled int64

	// freeAt[b] is the absolute slot at which output channel b stops
	// transmitting: the channel is busy in slot s exactly when
	// freeAt[b] > s, so a hold needs no per-slot aging. heldSource[b]
	// records who is transmitting while the hold is live.
	freeAt     []int64
	heldSource []heldConn
	// holdUntil is the high-water mark of every stamp written to freeAt
	// (no hold outlives it), and occDirty is true while any occupied entry
	// may be: together they let a port with no live hold skip the O(k)
	// occupancy sweep entirely.
	holdUntil int64
	occDirty  bool

	// Per-slot scratch. reqs holds the slot's requests in the order they
	// were filed: the switch's admission loop appends each admitted packet
	// (its only per-packet write to the port, so the serial part of a slot
	// stays one contiguous append), and prepare, on the crew, threads them
	// in place into one chain per wavelength and appends disturb-mode
	// requeues. The requests of chain x run from first[x] along
	// portRequest.next to last[x]; first[x] is −1 while there are none.
	// Commit walks each chain once and empties the table behind it. The
	// channels a wavelength's winners take come from the Result's channel
	// index, which the scheduler leaves ready (core.Result.Channels).
	reqs        []portRequest
	first, last []int32
	fibers      []int       // selector input buffer: a wavelength's new requesters
	durOf       []int       // per input fiber: duration of its request on the wavelength being expanded
	winners     []int       // selector output buffer
	grants      []portGrant // this slot's switched connections
	preemptees  []portGrant // held connections displaced this slot (disturb mode)

	// Per-port statistics, merged (moved) into the run totals by the
	// switch after the run; keeping them port-local avoids cross-
	// goroutine contention in distributed mode. Plain integers: each has
	// a single writer (the port's goroutine, inside a slot) and every
	// reader holds the switch's slot lock, so it never overlaps a slot.
	//
	// busyslots and busyPerChannel are credited with a grant's whole
	// duration when it is made and debited the unelapsed remainder when a
	// hold is released early (release); readers subtract unelapsed() so
	// they see exactly the channel-slots transmitted so far.
	offered         int64
	granted         int64
	outputDropped   int64
	preempted       int64
	busyslots       int64
	busyPerChannel  []int64
	perInputGranted []int64
	matchSizes      metrics.HistogramSnapshot // match-size tally, one count per slot
}

// newOutputPort builds port fiberID of an n-fiber switch. classes > 1
// selects strict-priority QoS mode; faults allocates the healthy-graph
// shadow results that only a fault mask reads. The k- and n-sized tables
// are carved out of one int and one int64 backing array.
func newOutputPort(fiberID, n, k int, conv wavelength.Conversion, sel fabric.Selector, disturb bool, classes int, faults bool) *outputPort {
	perClass := 0 // QoS mode's per-class tallies
	if classes > 1 {
		perClass = classes
	}
	links := make([]int32, 2*max(classes, 1)*k)
	for x := range links {
		links[x] = -1
	}
	ints := make([]int, k+n)
	int64s := make([]int64, 3*k+1+n+2*perClass)
	carve := func(m int) []int64 {
		t := int64s[:m:m]
		int64s = int64s[m:]
		return t
	}
	p := &outputPort{
		fiberID:         fiberID,
		k:               k,
		conv:            conv,
		sel:             sel,
		disturb:         disturb,
		classes:         1,
		count:           ints[0:k:k],
		durOf:           ints[k:],
		occupied:        make([]bool, k),
		waveMark:        fabric.NewBitVector(k),
		freeAt:          carve(k),
		busyPerChannel:  carve(k),
		matchSizes:      metrics.HistogramSnapshot{Buckets: carve(k + 1)},
		perInputGranted: carve(n),
		heldSource:      make([]heldConn, k),
		first:           links[:len(links)/2],
		last:            links[len(links)/2:],
	}
	if classes <= 1 {
		p.res = core.NewResult(k)
		if faults {
			p.shadow = core.NewResult(k)
		}
		return p
	}
	p.classes = classes
	p.counts = make([][]int, classes)
	p.results = make([]*core.Result, classes)
	if faults {
		p.shadows = make([]*core.Result, classes)
	}
	for c := 0; c < classes; c++ {
		p.counts[c] = make([]int, k)
		p.results[c] = core.NewResult(k)
		if faults {
			p.shadows[c] = core.NewResult(k)
		}
	}
	p.clsOff = carve(classes)
	p.clsGrant = carve(classes)
	return p
}

// observeMatch tallies one slot's matching size (0..k).
func (p *outputPort) observeMatch(size int) {
	p.matchSizes.Buckets[size]++
	p.matchSizes.Count++
	p.matchSizes.Sum += int64(size)
}

// admit files one admitted packet — from input fiber on wavelength w, for
// duration slots, of priority class — as a request of this slot, to be
// threaded by prepare. The switch has already rejected a second packet on
// one input channel, so each (fiber, wavelength) appears at most once.
// Called by the switch's admission loop, serially, before the crew runs.
func (p *outputPort) admit(fiber, w, duration, class int) {
	if p.classes > 1 {
		if class < 0 || class >= p.classes {
			class = p.classes - 1 // clamp unknown classes to lowest priority
		}
		w += class * p.k
	}
	p.reqs = append(p.reqs, portRequest{fiber: int32(fiber), key: int32(w), duration: duration})
}

// thread chains the slot's requests by key in filing order, counts them
// into the request vector (one per class in QoS mode) and marks their
// wavelengths. It reports whether there were any.
func (p *outputPort) thread() bool {
	for i := range p.reqs {
		r := &p.reqs[i]
		x := int(r.key)
		r.next = -1
		if p.first[x] < 0 {
			p.first[x] = int32(i)
		} else {
			p.reqs[p.last[x]].next = int32(i)
		}
		p.last[x] = int32(i)
		w := x
		if p.classes > 1 {
			w = x % p.k
			p.counts[x/p.k][w]++
		} else {
			p.count[w]++
		}
		p.waveMark.Set(w)
	}
	return len(p.reqs) > 0
}

// discard drops the slot's requests with their chains, request-vector
// entries and marks: commit's last step, and the undo of admission when a
// slot is rejected, so it leaves no trace.
func (p *outputPort) discard() {
	for w := p.waveMark.NextSet(0); w >= 0; w = p.waveMark.NextSet(w + 1) {
		p.count[w] = 0
		for c := range p.counts {
			p.counts[c][w] = 0
		}
		for x := w; x < len(p.first); x += p.k {
			p.first[x] = -1
		}
	}
	p.waveMark.Reset()
	p.reqs = p.reqs[:0]
}

// grant switches connection g this slot: it joins the slot's grants and
// its channel is stamped busy until slot+duration, the whole duration
// credited to the busy counters up front.
func (p *outputPort) grant(g portGrant) {
	p.grants = append(p.grants, g)
	end := p.slot + int64(g.duration)
	p.freeAt[g.channel] = end
	p.heldSource[g.channel] = heldConn{fiber: int32(g.fiber), wave: int32(g.wave)}
	if end > p.holdUntil {
		p.holdUntil = end
	}
	p.busyPerChannel[g.channel] += int64(g.duration)
	p.busyslots += int64(g.duration)
}

// release ends channel b's hold at slot boundary at — before this slot's
// transmission for a fault kill or a disturb-mode requeue, at the last
// completed slot for Finalize — and takes the slots it will now not
// transmit back out of the busy counters. It returns that unelapsed
// remainder.
func (p *outputPort) release(b int, at int64) int64 {
	rem := p.unelapsed(b, at)
	p.freeAt[b] = 0
	p.busyPerChannel[b] -= rem
	p.busyslots -= rem
	return rem
}

// unelapsed is the part of channel b's credited hold that lies at or after
// slot done — what a reader at that slot boundary subtracts from
// busyPerChannel[b] (and, summed, from busyslots) to see only the
// channel-slots already transmitted.
func (p *outputPort) unelapsed(b int, done int64) int64 {
	if rem := p.freeAt[b] - done; rem > 0 {
		return rem
	}
	return 0
}

// emit records one decision event on the port's lane. Callers must guard
// with p.tracer != nil; the guard (rather than a nil check here) keeps the
// disabled fast path free of argument marshalling.
func (p *outputPort) emit(kind telemetry.EventKind, reason telemetry.RejectReason, fiber, wave, channel int, value int64) {
	p.tracer.Emit(p.fiberID, telemetry.Event{
		Slot: p.slot, Lane: int32(p.fiberID), Kind: kind, Reason: reason,
		Fiber: int32(fiber), Wave: int32(wave), Channel: int32(channel), Value: value,
	})
}

// classifyReject explains why wavelength w's requests were denied when the
// matching granted them nothing: every window channel occupied, the free
// ones fault-masked, or usable channels lost to competing requests. O(k)
// walk over the conversion window; called only with tracing enabled.
func (p *outputPort) classifyReject(w int) telemetry.RejectReason {
	anyFree, anyUsable := false, false
	for b := 0; b < p.k; b++ {
		if !p.conv.CanConvert(wavelength.Wavelength(w), wavelength.Wavelength(b)) {
			continue
		}
		if p.occupied[b] {
			continue
		}
		anyFree = true
		if p.mask == nil || p.mask[b] == core.Healthy ||
			(p.mask[b] == core.ConverterFailed && b == w) {
			anyUsable = true
			break
		}
	}
	switch {
	case !anyFree:
		return telemetry.ReasonWindowOccupied
	case !anyUsable:
		return telemetry.ReasonFaultMasked
	default:
		return telemetry.ReasonLostMatching
	}
}

// killFaultedHolds aborts in-flight connections whose channel can no longer
// carry them under the current fault mask: a dark channel transmits nothing,
// and a converter-failed channel sustains only a connection already at the
// channel's own wavelength. Killed connections land in preemptees so the
// switch releases their input channels; they are not re-requested (the
// transmission is physically gone, unlike a disturb-mode reshuffle).
func (p *outputPort) killFaultedHolds() {
	if p.mask == nil || p.holdUntil <= p.slot {
		return
	}
	for b := 0; b < p.k; b++ {
		if p.freeAt[b] <= p.slot {
			continue
		}
		st := p.mask[b]
		src := p.heldSource[b]
		if st == core.Dark || (st == core.ConverterFailed && int(src.wave) != b) {
			fiber, wave := int(src.fiber), int(src.wave)
			p.faultKilled++
			p.preemptees = append(p.preemptees, portGrant{fiber: fiber, wave: wave})
			p.release(b, p.slot)
			if p.tracer != nil {
				p.emit(telemetry.EvFaultKill, telemetry.ReasonNone, fiber, wave, b, 0)
			}
		}
	}
}

// occ is the occupancy the kernel is handed: p.occupied while a channel
// is held this slot, nil (all free) otherwise.
func (p *outputPort) occ() []bool {
	if p.anyHeld {
		return p.occupied
	}
	return nil
}

// timed reports whether the engine clocks the port's slot: it had requests
// (arrivals or disturb requeues), or a tracer wants its EvSlotLatency.
func (p *outputPort) timed() bool {
	return p.anyReqs || p.tracer != nil
}

// schedule runs sched over the current request vector, with nil occupancy
// when nothing is held — through the masked path when a fault mask is
// active, in which case the healthy-graph matching of the same instance is
// also computed (into shadow) to attribute the difference to the faults.
func (p *outputPort) schedule(sched core.Scheduler) {
	occ := p.occ()
	if p.mask == nil {
		sched.Schedule(p.count, occ, p.res)
	} else {
		sched.ScheduleMasked(p.count, occ, p.mask, p.res)
		sched.Schedule(p.count, occ, p.shadow)
		if lost := p.shadow.Size - p.res.Size; lost > 0 {
			p.faultLost += int64(lost)
		}
	}
	if p.tracer != nil && p.res.BreakChannel != core.Unassigned {
		p.emit(telemetry.EvBreakEdge, telemetry.ReasonNone, -1, -1, p.res.BreakChannel, 0)
	}
}

// expand turns wavelength w's grant count in res into concrete winners in
// one walk of its request chain, which starts at reqs[head]: held
// connections (disturb mode) keep the first of the wavelength's granted
// channels in request order — keeping an in-flight connection beats
// admitting a new one — or are preempted once they run out, while the new
// requesters are gathered for the fair selector, which hands the remaining
// channels out among them. Every grant starts its hold as it is made.
// class is the QoS class the trace events carry (0 for a single-class
// port). It returns the new requests granted.
func (p *outputPort) expand(w int, head int32, res *core.Result, class int) int {
	g := res.Granted[w]
	if g == 0 {
		var reason telemetry.RejectReason
		if p.tracer != nil && head >= 0 { // an idle QoS class rejects nothing
			reason = p.classifyReject(w)
		}
		for i := head; i >= 0; i = p.reqs[i].next {
			r := &p.reqs[i]
			if r.held {
				p.preempt(int(r.fiber), w)
				continue
			}
			p.outputDropped++
			if p.tracer != nil {
				p.emit(telemetry.EvReject, reason, int(r.fiber), w, -1, int64(class))
			}
		}
		return 0
	}
	channels := res.Channels(w)
	ci := 0
	p.fibers = p.fibers[:0]
	for i := head; i >= 0; i = p.reqs[i].next {
		r := &p.reqs[i]
		f := int(r.fiber)
		if !r.held {
			p.fibers = append(p.fibers, f)
			p.durOf[f] = r.duration
			continue
		}
		if ci == g {
			p.preempt(f, w)
			continue
		}
		p.grant(portGrant{fiber: f, wave: w, channel: channels[ci], duration: r.duration, held: true})
		if p.tracer != nil {
			p.emit(telemetry.EvRegrant, telemetry.ReasonNone, f, w, channels[ci], 0)
		}
		ci++
	}
	p.winners = p.winners[:0]
	if ci < g {
		p.winners = p.sel.Pick(w, p.fibers, g-ci, p.winners)
		for _, f := range p.winners {
			p.grant(portGrant{fiber: f, wave: w, channel: channels[ci], duration: p.durOf[f]})
			p.perInputGranted[f]++
			if p.tracer != nil {
				p.emit(telemetry.EvGrant, telemetry.ReasonNone, f, w, channels[ci], int64(class))
			}
			ci++
		}
	}
	won := len(p.winners)
	p.outputDropped += int64(len(p.fibers) - won)
	if p.tracer != nil && len(p.fibers) > won {
		// The new requests that lost contention: everyone not among the
		// winners (tracer-only cost).
		for _, f := range p.fibers {
			if !slices.Contains(p.winners, f) {
				p.emit(telemetry.EvReject, telemetry.ReasonLostMatching, f, w, -1, int64(class))
			}
		}
	}
	return won
}

// preempt displaces held connection (fiber, λw): it is not re-placed this
// slot, so its input channel is freed and it is gone.
func (p *outputPort) preempt(fiber, w int) {
	p.preempted++
	p.preemptees = append(p.preemptees, portGrant{fiber: fiber, wave: w})
	if p.tracer != nil {
		p.emit(telemetry.EvPreempt, telemetry.ReasonNone, fiber, w, -1, 0)
	}
}

// runSlotClasses processes the port's share of one QoS slot: per-class
// request vectors, threaded from the admitted requests by prepare (QoS
// excludes disturb mode), scheduled by prio's strict priority, each class
// expanded through the fair selector. It returns the slot's switched
// connections (valid until the next slot).
func (p *outputPort) runSlotClasses(prio *core.PriorityScheduler) []portGrant {
	p.prepare()
	occ := p.occ()
	if p.mask == nil {
		if err := prio.ScheduleClasses(p.counts, occ, p.results); err != nil {
			panic(fmt.Sprintf("interconnect: port %d: %v", p.fiberID, err))
		}
	} else {
		if err := prio.ScheduleClassesMasked(p.counts, occ, p.mask, p.results); err != nil {
			panic(fmt.Sprintf("interconnect: port %d: %v", p.fiberID, err))
		}
		if err := prio.ScheduleClasses(p.counts, occ, p.shadows); err != nil {
			panic(fmt.Sprintf("interconnect: port %d: %v", p.fiberID, err))
		}
		if lost := core.TotalGranted(p.shadows) - core.TotalGranted(p.results); lost > 0 {
			p.faultLost += int64(lost)
		}
	}
	slotSize := 0
	for c, res := range p.results {
		slotSize += res.Size
		for w := p.waveMark.NextSet(0); w >= 0; w = p.waveMark.NextSet(w + 1) {
			p.clsOff[c] += int64(p.counts[c][w])
			won := int64(p.expand(w, p.first[c*p.k+w], res, c))
			p.granted += won
			p.clsGrant[c] += won
		}
	}
	p.discard()
	p.observeMatch(slotSize)
	return p.grants
}

// runSlotSingle is runSlotClasses for a single-class port, scheduled by
// sched.
func (p *outputPort) runSlotSingle(sched core.Scheduler) []portGrant {
	p.prepare()
	if p.anyReqs {
		p.schedule(sched)
	} else {
		// Empty instance: any scheduler returns the empty matching, so
		// skip the call and pin the two Result fields commit reads.
		p.res.Size = 0
		p.res.BreakChannel = core.Unassigned
	}
	return p.commit()
}

// prepare runs the pre-scheduling half of the slot pipeline: scratch
// reset, fault-kill sweep, occupancy derivation or, in disturb mode, the
// requeue of held connections behind the admitted requests, and the
// threading of them all (thread). After prepare, p.count, p.occupied and
// p.mask fully describe the port's scheduling instance for this slot —
// which is what the cluster controller ships to a remote node instead of
// calling p.schedule locally — and p.anyHeld says whether p.occupied has any
// entry set.
func (p *outputPort) prepare() {
	p.grants = p.grants[:0]
	p.preemptees = p.preemptees[:0]
	p.killFaultedHolds()
	p.offered += int64(len(p.reqs))

	// Occupancy from connections still holding their channels. With no
	// hold outliving the previous slot and a clean occupancy vector the
	// sweep is a no-op and is skipped outright.
	p.anyHeld = false
	if p.disturb {
		// Held connections are rescheduled from scratch alongside new
		// arrivals (Section V: "the existing connections can be disturbed,
		// i.e., be reassigned to a different output channel"): each hold is
		// released here and credited again if commit re-places it, so the
		// occupancy vector stays all-free.
		if p.holdUntil > p.slot {
			for b := range p.freeAt {
				if p.freeAt[b] <= p.slot {
					continue
				}
				src := p.heldSource[b]
				p.reqs = append(p.reqs, portRequest{
					fiber: src.fiber, key: src.wave, held: true,
					duration: int(p.release(b, p.slot)),
				})
			}
		}
	} else if p.holdUntil > p.slot || p.occDirty {
		occupied := p.occupied[:len(p.freeAt)]
		held := false
		for b, end := range p.freeAt {
			busy := end > p.slot
			occupied[b] = busy
			held = held || busy
		}
		p.anyHeld = held
		// Conservative after a fault kill emptied the port (one more
		// sweep), exact otherwise.
		p.occDirty = p.holdUntil > p.slot
	}
	p.anyReqs = p.thread()
}

// afterRemote performs the accounting that schedule would have done when
// the decision in p.res (and, under a fault mask, the healthy-graph
// matching in p.shadow) was computed off-port — by a cluster node or by
// the controller's local fallback scheduler. A batch scheduler writes no
// channel index, so the one commit reads is rebuilt here.
func (p *outputPort) afterRemote() {
	if p.anyReqs {
		p.res.IndexChannels()
	}
	if p.mask != nil {
		if lost := p.shadow.Size - p.res.Size; lost > 0 {
			p.faultLost += int64(lost)
		}
	}
	if p.tracer != nil && p.res.BreakChannel != core.Unassigned {
		p.emit(telemetry.EvBreakEdge, telemetry.ReasonNone, -1, -1, p.res.BreakChannel, 0)
	}
}

// commit runs the post-scheduling half of the slot pipeline: each active
// wavelength's requests are expanded into concrete winners and holds in
// one pass (expand), and the requests are then discarded, leaving the
// port ready for the next slot's admission. It returns the slot's switched
// connections (valid until the next slot).
func (p *outputPort) commit() []portGrant {
	p.observeMatch(p.res.Size)
	if !p.anyReqs {
		return p.grants // no requests, so no grants and nothing marked
	}
	for w := p.waveMark.NextSet(0); w >= 0; w = p.waveMark.NextSet(w + 1) {
		p.granted += int64(p.expand(w, p.first[w], p.res, 0))
	}
	p.discard()
	return p.grants
}

// mergeInto moves the port's local statistics into the run totals as of
// the slot boundary done, zeroing each local as it is folded in, so the
// live view (run totals + Σ port locals − unelapsed holds) stays correct
// before and after the merge without a finalized flag. Holds still in
// flight are settled first: their unelapsed slots never happen, so they
// come back out of the busy credit and the stamps are cleared. Caller
// holds the slot lock.
func (p *outputPort) mergeInto(s *Stats, done int64) {
	if p.holdUntil > done {
		for b := range p.freeAt {
			p.release(b, done)
		}
		p.holdUntil = 0
	}
	for c := range p.clsOff {
		s.PerClassOffered[c] += p.clsOff[c]
		s.PerClassGranted[c] += p.clsGrant[c]
		p.clsOff[c], p.clsGrant[c] = 0, 0
	}
	s.Offered.Add(p.offered)
	s.Granted.Add(p.granted)
	s.OutputDropped.Add(p.outputDropped)
	s.Preempted.Add(p.preempted)
	s.BusyChannelSlots.Add(p.busyslots)
	p.offered, p.granted, p.outputDropped, p.preempted, p.busyslots = 0, 0, 0, 0, 0
	for b, v := range p.busyPerChannel {
		s.PerChannelBusy[b] += v
		p.busyPerChannel[b] = 0
	}
	for f, v := range p.perInputGranted {
		s.PerInputGranted[f] += v
		p.perInputGranted[f] = 0
	}
	s.MatchSizes.AddSnapshot(p.matchSizes)
	clear(p.matchSizes.Buckets)
	p.matchSizes.Count, p.matchSizes.Sum = 0, 0
	if s.Fault != nil {
		s.Fault.LostGrants.Add(p.faultLost)
		s.Fault.KilledConnections.Add(p.faultKilled)
		p.faultLost, p.faultKilled = 0, 0
	}
}
