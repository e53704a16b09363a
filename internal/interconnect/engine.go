package interconnect

import (
	"sync"
	"time"

	"wdmsched/internal/telemetry"
)

// engine is the distributed execution backend: one long-lived worker
// goroutine per output port, started once at switch construction and woken
// every slot, realizing the paper's "N independent schedulers" claim
// without the goroutine churn of spawning N goroutines per slot.
//
// Determinism: worker o exclusively owns port o (its scheduler, selector,
// and scratch), arrival partitioning happens before the fan-out, and the
// switch consumes results only after the slot barrier — so a distributed
// run is a pure reordering of independent per-port computations and
// produces results identical to the sequential loop.
//
// Memory model: the wake-channel send publishes the switch's writes (the
// per-port arrival slices, fault masks and slot numbers) to the worker,
// and slot.Done/slot.Wait publish the worker's writes (results, port
// state, trace events) back — no locks on the hot path and nothing
// allocated per slot. The switch holds its slot lock around runSlot, so
// the same barrier orders the workers' plain port-statistic writes before
// the unlock that lets a Snapshot or scrape in. Busy time goes through
// EngineStats' atomic accumulators so live telemetry can read it mid-run.
type engine struct {
	ports    []*outputPort
	arrivals [][]arrival   // switch-owned per-port arrival scratch (stable outer slice)
	results  [][]portGrant // switch-owned per-port grant buffers (stable outer slice)
	es       *EngineStats  // atomic per-port busy accumulation

	wake []chan struct{} // per-worker slot triggers (buffered, cap 1)
	stop chan struct{}   // closed exactly once on shutdown

	slot sync.WaitGroup // per-slot completion barrier
	done sync.WaitGroup // worker lifecycle
	off  sync.Once
}

// newEngine starts one worker per port. arrivals and results must be the
// switch's per-slot scratch slices: the workers index into them directly,
// so their outer slices must never be reallocated.
func newEngine(ports []*outputPort, arrivals [][]arrival, results [][]portGrant, es *EngineStats) *engine {
	n := len(ports)
	e := &engine{
		ports:    ports,
		arrivals: arrivals,
		results:  results,
		es:       es,
		wake:     make([]chan struct{}, n),
		stop:     make(chan struct{}),
	}
	e.done.Add(n)
	for o := 0; o < n; o++ {
		e.wake[o] = make(chan struct{}, 1)
		go e.worker(o)
	}
	return e
}

// worker is the persistent per-port loop: wait for a slot trigger, run the
// port's scheduling pipeline, report completion; exit when stop closes.
func (e *engine) worker(o int) {
	defer e.done.Done()
	port := e.ports[o]
	for {
		select {
		case <-e.stop:
			return
		case <-e.wake[o]:
			start := time.Now()
			e.results[o] = port.runSlot(e.arrivals[o])
			d := time.Since(start)
			e.es.addBusy(o, d)
			if t := port.tracer; t != nil {
				t.Emit(o, telemetry.Event{
					Slot: port.slot, Lane: int32(o), Kind: telemetry.EvSlotLatency,
					Fiber: -1, Wave: -1, Channel: -1, Value: int64(d),
				})
			}
			e.slot.Done()
		}
	}
}

// runSlot triggers every worker for the current slot and blocks until all
// ports have produced their grants. Allocation-free: a WaitGroup add and n
// buffered-channel sends.
func (e *engine) runSlot() {
	e.slot.Add(len(e.ports))
	for _, ch := range e.wake {
		ch <- struct{}{}
	}
	e.slot.Wait()
}

// shutdown stops the workers and waits for them to exit. Idempotent; called
// from Finalize and, as a leak backstop, from a runtime cleanup when a
// switch is dropped without finalizing.
func (e *engine) shutdown() {
	e.off.Do(func() {
		close(e.stop)
		e.done.Wait()
	})
}
