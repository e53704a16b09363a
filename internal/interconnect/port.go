package interconnect

import (
	"fmt"

	"wdmsched/internal/core"
	"wdmsched/internal/fabric"
	"wdmsched/internal/metrics"
	"wdmsched/internal/telemetry"
	"wdmsched/internal/wavelength"
)

// portRequest is one request pending at an output port in the current
// slot: either a new arrival or, in disturb mode, a held connection being
// rescheduled.
type portRequest struct {
	fiber    int
	duration int // for held requests: remaining slots including this one
	held     bool
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
	classes   int
	classReqs [][][]portRequest // [class][wavelength]
	counts    [][]int           // [class][wavelength]
	results   []*core.Result    // per class
	clsOff    []int64
	clsGrant  []int64

	count    []int
	occupied []bool
	res      *core.Result // nil in QoS mode, which schedules into results
	anyReqs  bool         // any requests this slot (arrivals or disturb requeues)
	// waveMark flags the wavelengths holding requests this slot, so the
	// commit expansion and the next prepare's request-list reset touch
	// only the active wavelengths instead of sweeping all k.
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

	// Per-slot scratch.
	reqs        [][]portRequest // per wavelength
	fibers      []int           // selector input buffer
	winners     []int           // selector output buffer
	grants      []portGrant     // this slot's switched connections
	preemptees  []portGrant     // held connections displaced this slot (disturb mode)
	fiberGrants []int64         // per-input grant tallies, flushed once per slot

	// Counting-sorted channel index of the slot's Result: the channels
	// granted to wavelength w are chanBuf[chanOff[w]:][:res.Granted[w]], in
	// ascending channel order. Built in one O(k) pass by buildChannelIndex,
	// replacing the former O(k) ByOutput scan per granted wavelength
	// (O(k²) per slot, which dominated commit at large k).
	chanBuf []int
	chanOff []int
	chanPos []int // fill cursor per wavelength, doubles as a consistency check

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
	ints := make([]int, 4*k)
	int64s := make([]int64, 3*k+1+2*n+2*perClass)
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
		chanBuf:         ints[k : 2*k : 2*k],
		chanPos:         ints[2*k : 3*k : 3*k],
		chanOff:         ints[3*k:],
		occupied:        make([]bool, k),
		waveMark:        fabric.NewBitVector(k),
		freeAt:          carve(k),
		busyPerChannel:  carve(k),
		matchSizes:      metrics.HistogramSnapshot{Buckets: carve(k + 1)},
		perInputGranted: carve(n),
		fiberGrants:     carve(n),
		heldSource:      make([]heldConn, k),
		reqs:            make([][]portRequest, k),
	}
	if classes <= 1 {
		p.res = core.NewResult(k)
		if faults {
			p.shadow = core.NewResult(k)
		}
		return p
	}
	p.classes = classes
	p.classReqs = make([][][]portRequest, classes)
	p.counts = make([][]int, classes)
	p.results = make([]*core.Result, classes)
	if faults {
		p.shadows = make([]*core.Result, classes)
	}
	for c := 0; c < classes; c++ {
		p.classReqs[c] = make([][]portRequest, k)
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

// hold starts grant g's transmission on its channel this slot: the channel
// is stamped busy until slot+duration and the whole duration is credited
// to the busy counters up front.
func (p *outputPort) hold(g portGrant) {
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

// schedule runs sched over the current request vector — through the
// masked path when a fault mask is active, in which case the healthy-graph
// matching of the same instance is also computed (into shadow) to
// attribute the difference to the faults.
func (p *outputPort) schedule(sched core.Scheduler) {
	if p.mask == nil {
		sched.Schedule(p.count, p.occupied, p.res)
	} else {
		sched.ScheduleMasked(p.count, p.occupied, p.mask, p.res)
		sched.Schedule(p.count, p.occupied, p.shadow)
		if lost := p.shadow.Size - p.res.Size; lost > 0 {
			p.faultLost += int64(lost)
		}
	}
	if p.tracer != nil && p.res.BreakChannel != core.Unassigned {
		p.emit(telemetry.EvBreakEdge, telemetry.ReasonNone, -1, -1, p.res.BreakChannel, 0)
	}
}

// buildChannelIndex counting-sorts res.ByOutput into the per-wavelength
// channel index (chanBuf/chanOff): offsets come from the prefix sums of
// res.Granted, then one ascending-b pass drops each granted channel into
// its wavelength's bucket, preserving ascending channel order within a
// wavelength — the same order the per-wavelength ByOutput scans produced.
func (p *outputPort) buildChannelIndex(res *core.Result) {
	off := 0
	for w := 0; w < p.k; w++ {
		p.chanOff[w] = off
		p.chanPos[w] = off
		off += res.Granted[w]
	}
	for b := 0; b < p.k; b++ {
		w := res.ByOutput[b]
		if w == core.Unassigned {
			continue
		}
		if p.chanPos[w]-p.chanOff[w] == res.Granted[w] {
			panic(fmt.Sprintf("interconnect: port %d wavelength %d: more channels than %d grants",
				p.fiberID, w, res.Granted[w]))
		}
		p.chanBuf[p.chanPos[w]] = b
		p.chanPos[w]++
	}
}

// grantedChannels returns wavelength w's granted channels from the index,
// panicking (like the old scan did) if the Result's ByOutput and Granted
// disagree.
func (p *outputPort) grantedChannels(w, g int) []int {
	chs := p.chanBuf[p.chanOff[w]:p.chanPos[w]]
	if len(chs) != g {
		panic(fmt.Sprintf("interconnect: port %d wavelength %d: %d channels for %d grants",
			p.fiberID, w, len(chs), g))
	}
	return chs
}

// runSlotClasses processes the port's share of one QoS slot: per-class
// request vectors scheduled by prio's strict priority, each class expanded
// through the fair selector. arrivals is the list of packets destined to
// this output fiber (already input-admission-filtered by the switch). It
// returns the slot's switched connections (valid until the next slot).
func (p *outputPort) runSlotClasses(arrivals []arrival, prio *core.PriorityScheduler) []portGrant {
	p.grants = p.grants[:0]
	p.preemptees = p.preemptees[:0]
	p.killFaultedHolds()
	for c := 0; c < p.classes; c++ {
		for w := 0; w < p.k; w++ {
			p.classReqs[c][w] = p.classReqs[c][w][:0]
			p.counts[c][w] = 0
		}
	}
	for b := 0; b < p.k; b++ {
		p.occupied[b] = p.freeAt[b] > p.slot
	}
	p.offered += int64(len(arrivals))
	for _, a := range arrivals {
		c := a.class
		if c < 0 || c >= p.classes {
			c = p.classes - 1 // clamp unknown classes to lowest priority
		}
		p.clsOff[c]++
		p.classReqs[c][a.wave] = append(p.classReqs[c][a.wave], portRequest{fiber: a.fiber, duration: a.duration})
		p.counts[c][a.wave]++
	}
	if p.mask == nil {
		if err := prio.ScheduleClasses(p.counts, p.occupied, p.results); err != nil {
			panic(fmt.Sprintf("interconnect: port %d: %v", p.fiberID, err))
		}
	} else {
		if err := prio.ScheduleClassesMasked(p.counts, p.occupied, p.mask, p.results); err != nil {
			panic(fmt.Sprintf("interconnect: port %d: %v", p.fiberID, err))
		}
		if err := prio.ScheduleClasses(p.counts, p.occupied, p.shadows); err != nil {
			panic(fmt.Sprintf("interconnect: port %d: %v", p.fiberID, err))
		}
		if lost := core.TotalGranted(p.shadows) - core.TotalGranted(p.results); lost > 0 {
			p.faultLost += int64(lost)
		}
	}
	slotSize := 0
	for c := 0; c < p.classes; c++ {
		res := p.results[c]
		slotSize += res.Size
		if res.Size > 0 {
			p.buildChannelIndex(res)
		}
		for w := 0; w < p.k; w++ {
			g := res.Granted[w]
			reqs := p.classReqs[c][w]
			if g == 0 {
				p.outputDropped += int64(len(reqs))
				if p.tracer != nil && len(reqs) > 0 {
					reason := p.classifyReject(w)
					for _, r := range reqs {
						p.emit(telemetry.EvReject, reason, r.fiber, w, -1, int64(c))
					}
				}
				continue
			}
			channels := p.grantedChannels(w, g)
			p.fibers = p.fibers[:0]
			for _, r := range reqs {
				p.fibers = append(p.fibers, r.fiber)
			}
			p.winners = p.sel.Pick(w, p.fibers, g, p.winners[:0])
			for ci, f := range p.winners {
				dur := 0
				for _, r := range reqs {
					if r.fiber == f {
						dur = r.duration
						break
					}
				}
				p.grants = append(p.grants, portGrant{
					fiber: f, wave: w, channel: channels[ci], duration: dur,
				})
				p.granted++
				p.clsGrant[c]++
				p.perInputGranted[f]++
				if p.tracer != nil {
					p.emit(telemetry.EvGrant, telemetry.ReasonNone, f, w, channels[ci], int64(c))
				}
			}
			p.outputDropped += int64(len(reqs) - g)
			if p.tracer != nil && len(reqs) > g {
				// Requests that lost contention despite grants on their
				// wavelength: everyone not among the winners.
				for _, r := range reqs {
					won := false
					for _, f := range p.winners {
						if f == r.fiber {
							won = true
							break
						}
					}
					if !won {
						p.emit(telemetry.EvReject, telemetry.ReasonLostMatching, r.fiber, w, -1, int64(c))
					}
				}
			}
		}
	}
	p.observeMatch(slotSize)
	for _, g := range p.grants {
		p.hold(g)
	}
	return p.grants
}

// runSlotSingle is runSlotClasses for a single-class port, scheduled by
// sched.
func (p *outputPort) runSlotSingle(arrivals []arrival, sched core.Scheduler) []portGrant {
	p.prepare(arrivals)
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
// reset, fault-kill sweep, occupancy derivation and request-vector
// construction. After prepare, p.count, p.occupied and p.mask fully
// describe the port's scheduling instance for this slot — which is what
// the cluster controller ships to a remote node instead of calling
// p.schedule locally.
func (p *outputPort) prepare(arrivals []arrival) {
	// Only wavelengths marked active last slot can hold stale requests
	// or a stale count entry.
	for w := p.waveMark.NextSet(0); w >= 0; w = p.waveMark.NextSet(w + 1) {
		p.reqs[w] = p.reqs[w][:0]
		p.count[w] = 0
	}
	p.waveMark.Reset()
	p.grants = p.grants[:0]
	p.preemptees = p.preemptees[:0]
	p.killFaultedHolds()
	p.anyReqs = len(arrivals) > 0

	// Occupancy from connections still holding their channels. With no
	// hold outliving the previous slot and a clean occupancy vector the
	// sweep is a no-op and is skipped outright.
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
				w := int(src.wave)
				p.reqs[w] = append(p.reqs[w], portRequest{
					fiber:    int(src.fiber),
					duration: int(p.release(b, p.slot)),
					held:     true,
				})
				p.waveMark.Set(w)
				p.count[w]++
				p.anyReqs = true
			}
		}
	} else if p.holdUntil > p.slot || p.occDirty {
		occupied := p.occupied[:len(p.freeAt)]
		for b, end := range p.freeAt {
			occupied[b] = end > p.slot
		}
		// Conservative after a fault kill emptied the port (one more
		// sweep), exact otherwise.
		p.occDirty = p.holdUntil > p.slot
	}

	// New arrivals populate the per-wavelength request lists and the
	// request vector, which is maintained incrementally: one count per
	// arrival plus (above) one per disturb-mode requeue. The switch has
	// already rejected a second packet on one input channel, so each
	// (fiber, wavelength) appears at most once.
	p.offered += int64(len(arrivals))
	for _, a := range arrivals {
		p.reqs[a.wave] = append(p.reqs[a.wave], portRequest{fiber: a.fiber, duration: a.duration})
		p.waveMark.Set(a.wave)
		p.count[a.wave]++
	}
}

// afterRemote performs the accounting that schedule would have done when
// the decision in p.res (and, under a fault mask, the healthy-graph
// matching in p.shadow) was computed off-port — by a cluster node or by
// the controller's local fallback scheduler.
func (p *outputPort) afterRemote() {
	if p.mask != nil {
		if lost := p.shadow.Size - p.res.Size; lost > 0 {
			p.faultLost += int64(lost)
		}
	}
	if p.tracer != nil && p.res.BreakChannel != core.Unassigned {
		p.emit(telemetry.EvBreakEdge, telemetry.ReasonNone, -1, -1, p.res.BreakChannel, 0)
	}
}

// commit runs the post-scheduling half of the slot pipeline: expanding the
// per-wavelength grant counts in p.res into concrete winners through the
// fair selector, then the channel-hold bookkeeping. It returns the slot's
// switched connections (valid until the next slot).
func (p *outputPort) commit() []portGrant {
	p.observeMatch(p.res.Size)
	if p.res.Size == 0 {
		// Nothing was granted: the channel index would be empty, and with
		// no requests either there is nothing to reject or preempt.
		if !p.anyReqs {
			return p.grants
		}
	} else {
		p.buildChannelIndex(p.res)
	}
	var granted, dropped, preempted int64

	// Expand per-wavelength grant counts into concrete winners. Held
	// connections are served first (keeping an in-flight connection beats
	// admitting a new one); the fair selector breaks ties among new
	// requests. Only the active wavelengths can hold requests or grants,
	// so the sweep follows waveMark instead of scanning all k.
	for w := p.waveMark.NextSet(0); w >= 0; w = p.waveMark.NextSet(w + 1) {
		g := p.res.Granted[w]
		if g == 0 {
			var reason telemetry.RejectReason
			if p.tracer != nil && len(p.reqs[w]) > 0 {
				reason = p.classifyReject(w)
			}
			for _, r := range p.reqs[w] {
				if r.held {
					preempted++
					p.preemptees = append(p.preemptees, portGrant{fiber: r.fiber, wave: w})
					if p.tracer != nil {
						p.emit(telemetry.EvPreempt, telemetry.ReasonNone, r.fiber, w, -1, 0)
					}
				} else {
					dropped++
					if p.tracer != nil {
						p.emit(telemetry.EvReject, reason, r.fiber, w, -1, 0)
					}
				}
			}
			continue
		}
		channels := p.grantedChannels(w, g)
		ci := 0
		remaining := g
		// Held-first placement.
		if p.disturb {
			for _, r := range p.reqs[w] {
				if !r.held {
					continue
				}
				if remaining == 0 {
					preempted++
					p.preemptees = append(p.preemptees, portGrant{fiber: r.fiber, wave: w})
					if p.tracer != nil {
						p.emit(telemetry.EvPreempt, telemetry.ReasonNone, r.fiber, w, -1, 0)
					}
					continue
				}
				p.grants = append(p.grants, portGrant{
					fiber: r.fiber, wave: w, channel: channels[ci],
					duration: r.duration, held: true,
				})
				if p.tracer != nil {
					p.emit(telemetry.EvRegrant, telemetry.ReasonNone, r.fiber, w, channels[ci], 0)
				}
				ci++
				remaining--
			}
		}
		// Fair selection among new requests for the remaining channels.
		if remaining > 0 {
			p.fibers = p.fibers[:0]
			for _, r := range p.reqs[w] {
				if !r.held {
					p.fibers = append(p.fibers, r.fiber)
				}
			}
			p.winners = p.sel.Pick(w, p.fibers, remaining, p.winners[:0])
			for _, f := range p.winners {
				dur := 0
				for _, r := range p.reqs[w] {
					if !r.held && r.fiber == f {
						dur = r.duration
						break
					}
				}
				p.grants = append(p.grants, portGrant{
					fiber: f, wave: w, channel: channels[ci],
					duration: dur,
				})
				if p.tracer != nil {
					p.emit(telemetry.EvGrant, telemetry.ReasonNone, f, w, channels[ci], 0)
				}
				ci++
				granted++
				p.fiberGrants[f]++
			}
		}
		// New requests that lost contention.
		newReqs := 0
		for _, r := range p.reqs[w] {
			if !r.held {
				newReqs++
			}
		}
		newGranted := g
		if p.disturb {
			newGranted = 0
			for _, pg := range p.grants {
				if pg.wave == w && !pg.held {
					newGranted++
				}
			}
		}
		dropped += int64(newReqs - newGranted)
		if p.tracer != nil && newReqs > newGranted {
			// Identify the losers: new requests without a grant this slot
			// on this wavelength (grant list scan; tracer-only cost).
			for _, r := range p.reqs[w] {
				if r.held {
					continue
				}
				won := false
				for _, pg := range p.grants {
					if pg.wave == w && !pg.held && pg.fiber == r.fiber {
						won = true
						break
					}
				}
				if !won {
					p.emit(telemetry.EvReject, telemetry.ReasonLostMatching, r.fiber, w, -1, 0)
				}
			}
		}
	}

	// Flush the slot's batched statistics (per-input tallies once per
	// touched fiber).
	p.granted += granted
	p.outputDropped += dropped
	p.preempted += preempted
	for f, c := range p.fiberGrants {
		if c != 0 {
			p.perInputGranted[f] += c
			p.fiberGrants[f] = 0
		}
	}

	// Hold bookkeeping: every switched connection occupies its channel
	// for its (remaining) duration starting this slot.
	for _, g := range p.grants {
		p.hold(g)
	}
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
