package interconnect

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/telemetry"
)

// engine runs a slot's ports on a crew: the caller of runSlot plus a fixed
// set of helper goroutines (none in sequential mode). A port is claimed by a
// CAS of its flag from the last shared slot's epoch to this one, the caller
// ascending and helpers descending, and its claimant owns it (selector,
// scratch, results row) for the slot and schedules it with the claimant's
// own scheduler: a reordering of the sequential loop, with identical
// results, because a scheduler's Result depends on its input alone. The
// paper's one scheduler per output fiber is hardware; the software runs
// one per crew member. Helpers spin on the epoch and park after
// spinWindow; the caller never waits for a wake, only for ports a helper
// has claimed. The epoch bump publishes the switch's slot writes to the
// helpers and the done count their port writes back to the caller.
type engine struct {
	ports   []*outputPort
	results [][]portGrant // switch-owned per-port grant buffers (stable outer slice)
	es      *EngineStats  // atomic per-port busy accumulation

	// Crew member m's scheduler (member 0 is the runSlot caller, member
	// 1+h helper h): scheds[m] for single-class ports, prios[m] in QoS mode,
	// where scheds is nil. Both are nil in remote mode, where runSlot never
	// runs.
	scheds []core.Scheduler
	prios  []*core.PriorityScheduler

	epoch atomic.Uint64   // slots shared with the helpers
	claim []atomic.Uint64 // the last epoch each port was claimed in
	done  atomic.Uint64   // ports finished, cumulative: epoch·N after a slot

	wake []chan struct{} // per-helper wake token (buffered, cap 1)
	stop chan struct{}   // closed exactly once on shutdown
	crew sync.WaitGroup  // helper lifecycle
	off  sync.Once
}

// spinWindow bounds spinning before a helper parks or a waiting caller
// yields: about one goroutine wake's cost, so it never exceeds what it saves.
const spinWindow = 50 * time.Microsecond

// newEngine starts the helpers. results must be the switch's per-slot
// grant slices: the crew indexes into them directly, so the outer slice
// must never be reallocated. scheds or prios carries one scheduler per
// crew member, 1+helpers of them.
func newEngine(ports []*outputPort, results [][]portGrant, es *EngineStats,
	helpers int, scheds []core.Scheduler, prios []*core.PriorityScheduler) *engine {
	e := &engine{
		ports: ports, results: results, es: es,
		scheds: scheds, prios: prios,
		claim: make([]atomic.Uint64, len(ports)),
		wake:  make([]chan struct{}, helpers),
		stop:  make(chan struct{}),
	}
	e.crew.Add(helpers)
	for h := range helpers {
		e.wake[h] = make(chan struct{}, 1)
		go e.helper(h)
	}
	return e
}

// runSlot runs every port for the current slot, timed from start (when
// RunSlot began the phase), and returns once all have produced their
// grants, with the time the phase ended. A slot with arrivals for fewer
// than two ports runs on the caller alone: a helper could take only idle
// ports off its hands.
func (e *engine) runSlot(start time.Time) time.Time {
	t, loaded := start, 0
	for o := 0; o < len(e.ports) && loaded < 2 && len(e.wake) > 0; o++ {
		if len(e.ports[o].reqs) > 0 {
			loaded++
		}
	}
	if loaded < 2 {
		for o := range e.ports {
			t = e.run(o, 0, t)
		}
		if e.ports[len(e.ports)-1].timed() {
			return t // the last port's end is the phase's
		}
		return time.Now()
	}
	// Every helper holds a wake token after the bump: none sleeps through it.
	ep := e.epoch.Add(1)
	for _, ch := range e.wake {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	var mine uint64
	for o := range e.ports {
		if e.claimPort(o, ep) {
			t = e.run(o, 0, t)
			mine++
		}
	}
	want := ep * uint64(len(e.ports))
	deadline := t.Add(spinWindow)
	for i, n := 1, e.done.Add(mine); n != want; i, n = i+1, e.done.Load() {
		if i%64 == 0 && time.Now().After(deadline) {
			runtime.Gosched()
		}
	}
	return time.Now()
}

// claimPort takes port o for epoch ep; it fails once anyone has.
func (e *engine) claimPort(o int, ep uint64) bool {
	return e.claim[o].Load() == ep-1 && e.claim[o].CompareAndSwap(ep-1, ep)
}

// run schedules port o with crew member m's scheduler. A timed port (one
// with requests this slot, or traced) books the time since start as its
// busy time and slot-latency event and returns the time it finished; an
// untimed one reads no clock and returns start, so its few nanoseconds
// fall into the next timed port's interval.
func (e *engine) run(o, m int, start time.Time) time.Time {
	port := e.ports[o]
	if e.prios != nil {
		e.results[o] = port.runSlotClasses(e.prios[m])
	} else {
		e.results[o] = port.runSlotSingle(e.scheds[m])
	}
	if !port.timed() {
		return start
	}
	end := time.Now()
	d := end.Sub(start)
	e.es.addBusy(o, d)
	if t := port.tracer; t != nil {
		t.Emit(o, telemetry.Event{
			Slot: port.slot, Lane: int32(o), Kind: telemetry.EvSlotLatency,
			Fiber: -1, Wave: -1, Channel: -1, Value: int64(d),
		})
	}
	return end
}

// helper is a crew member's loop: spin on the epoch, claim ports from the
// top down when it moves, park on its wake token after spinWindow without a
// slot. A spinning helper notices stop once it parks.
func (e *engine) helper(h int) {
	defer e.crew.Done()
	seen := e.epoch.Load()
	deadline := time.Now().Add(spinWindow)
	for i := 1; ; i++ {
		if ep := e.epoch.Load(); ep != seen {
			seen = ep
			t := time.Now()
			for o := len(e.ports) - 1; o >= 0; o-- {
				if e.claimPort(o, ep) {
					t = e.run(o, 1+h, t)
					e.done.Add(1)
				}
			}
			deadline = t.Add(spinWindow)
			continue
		}
		if i%64 != 0 || time.Now().Before(deadline) {
			continue
		}
		select {
		case <-e.stop:
			return
		case <-e.wake[h]:
		}
		deadline = time.Now().Add(spinWindow)
	}
}

// shutdown stops the helpers and waits for them to exit. Idempotent; called
// from Finalize and, as a leak backstop, from a runtime cleanup when a
// switch is dropped without finalizing.
func (e *engine) shutdown() {
	e.off.Do(func() {
		close(e.stop)
		e.crew.Wait()
	})
}
