package main

import (
	"errors"
	"fmt"
	"time"

	"wdmsched/internal/core"
	"wdmsched/internal/interconnect"
	"wdmsched/internal/wavelength"
)

// probe is a bench-owned BatchScheduler: plugged into Config.Remote it makes
// the switch do everything it does on the sequential path except the
// matching itself, which the probe performs with the same core schedulers
// and times. RunSlot minus ScheduleBatch is therefore orchestration, and the
// Schedule loop is the kernel — measured from outside, on the real
// per-port instances.
type probe struct {
	conv   wavelength.Conversion
	scheds []core.Scheduler
	hk     core.Scheduler
	hkRes  *core.Result
	busy   []int // reused: indices of the non-empty requests of a slot

	// Set by the driver around a sampled slot: the span ScheduleBatch hangs
	// its own spans under. -1 otherwise.
	tr     *tracer
	parent int

	batchNS  int64 // whole ScheduleBatch calls
	kernelNS int64 // the Schedule loop alone
	hkNS     int64

	portSlots  int64
	nonEmpty   int64
	requests   int64
	occupied   int64
	matched    int64
	hkSlots    int64
	hkMismatch int64
	invalid    int64
	firstBad   string
}

func newProbe(conv wavelength.Conversion, n int, scheduler string) (*probe, error) {
	p := &probe{conv: conv, parent: -1, hkRes: core.NewResult(conv.K())}
	for o := 0; o < n; o++ {
		s, err := core.NewByName(scheduler, conv)
		if err != nil {
			return nil, err
		}
		p.scheds = append(p.scheds, s)
	}
	var err error
	p.hk, err = core.NewByName("hopcroft-karp", conv)
	return p, err
}

// hkEvery is the slot sampling period of the Hopcroft–Karp cross-check.
const hkEvery = 256

func (p *probe) ScheduleBatch(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	t0 := time.Now()
	p.busy = p.busy[:0]
	for i := range reqs {
		if reqs[i].Mask != nil {
			return errors.New("probe: fault masks are not part of any benchmark workload")
		}
		// The sequential path skips the scheduler for a port without
		// requests; so does the probe.
		if core.TotalRequests(reqs[i].Count) == 0 {
			out[i].Res.Reset()
			continue
		}
		p.busy = append(p.busy, i)
	}

	t1 := time.Now()
	if p.parent >= 0 {
		batch := p.tr.begin("ScheduleBatch", p.parent, slot)
		for _, i := range p.busy {
			sp := p.tr.begin(fmt.Sprintf("core.Schedule[%d]", reqs[i].Port), batch, slot)
			p.scheds[reqs[i].Port].Schedule(reqs[i].Count, reqs[i].Occupied, out[i].Res)
			p.tr.end(sp)
		}
		p.tr.end(batch)
	} else {
		for _, i := range p.busy {
			p.scheds[reqs[i].Port].Schedule(reqs[i].Count, reqs[i].Occupied, out[i].Res)
		}
	}
	t2 := time.Now()

	p.portSlots += int64(len(reqs))
	p.nonEmpty += int64(len(p.busy))
	for i := range reqs {
		for _, occ := range reqs[i].Occupied {
			if occ {
				p.occupied++
			}
		}
	}
	for _, i := range p.busy {
		p.requests += int64(core.TotalRequests(reqs[i].Count))
		p.matched += int64(out[i].Res.Size)
		if err := core.Validate(p.conv, reqs[i].Count, reqs[i].Occupied, out[i].Res); err != nil {
			p.invalid++
			if p.firstBad == "" {
				p.firstBad = fmt.Sprintf("slot %d port %d: %v", slot, reqs[i].Port, err)
			}
		}
	}
	if slot%hkEvery == 0 {
		h0 := time.Now()
		for _, i := range p.busy {
			p.hk.Schedule(reqs[i].Count, reqs[i].Occupied, p.hkRes)
			if p.hkRes.Size != out[i].Res.Size {
				p.hkMismatch++
			}
		}
		p.hkNS += int64(time.Since(h0))
		p.hkSlots++
	}
	p.kernelNS += int64(t2.Sub(t1))
	p.batchNS += int64(time.Since(t0))
	return nil
}

// reset clears the accumulators after warm-up.
func (p *probe) reset() {
	scheds, hk, hkRes, conv, tr := p.scheds, p.hk, p.hkRes, p.conv, p.tr
	*p = probe{conv: conv, scheds: scheds, hk: hk, hkRes: hkRes, tr: tr, parent: -1}
}

// problems reports the probe's output checks.
func (p *probe) problems(name string) []string {
	var out []string
	if p.invalid > 0 {
		out = append(out, fmt.Sprintf("%s: core.Validate rejected %d results, first: %s", name, p.invalid, p.firstBad))
	}
	if p.hkMismatch > 0 {
		out = append(out, fmt.Sprintf("%s: %d sampled port-slots where the matching size differs from Hopcroft-Karp", name, p.hkMismatch))
	}
	return out
}

// timedBatch wraps the cluster controller to time ScheduleBatch from
// outside. It forwards the cluster statistics so the switch keeps linking
// them into its Stats.
type timedBatch struct {
	inner interface {
		interconnect.BatchScheduler
		interconnect.ClusterStatsSource
	}
	ns int64
}

func (t *timedBatch) ScheduleBatch(slot int64, reqs []interconnect.BatchRequest, out []interconnect.BatchResult) error {
	t0 := time.Now()
	err := t.inner.ScheduleBatch(slot, reqs, out)
	t.ns += int64(time.Since(t0))
	return err
}

func (t *timedBatch) ClusterStats() *interconnect.ClusterStats { return t.inner.ClusterStats() }
