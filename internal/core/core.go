// Package core implements the paper's contribution: the distributed
// scheduling algorithms that resolve output contention in a wavelength
// convertible WDM optical interconnect (Zhang & Yang, IPDPS 2003).
//
// A scheduler resolves one output fiber's contention per call. Its input
// each time slot is the request vector — how many connection requests
// arrived on each input wavelength destined to this fiber — plus
// optionally a mask of output channels still occupied by connections from
// earlier slots (Section V). Its output is a wavelength assignment that
// realizes a maximum matching of the request graph: the largest
// contention-free subset of requests (Section II-B).
//
// Schedulers:
//
//   - FirstAvailable — Table 2; exact for non-circular symmetrical
//     conversion, O(k) per slot.
//   - Break and First Available — Table 3; exact for circular symmetrical
//     conversion, O(dk) per slot. FastBFA is the implementation NewExact
//     returns (word-parallel over packed bitsets); BreakFirstAvailable is
//     the scalar transcription it is held byte-identical to.
//   - DeltaBreak — Section IV-C; single-break approximation for circular
//     conversion, O(k) per slot, within max{δ−1, d−δ} of optimal
//     (Theorem 3). With δ = (d+1)/2 (the "shortest edge") the gap is at
//     most (d−1)/2 (Corollary 1).
//   - FullRange — the trivial exact scheduler for full range conversion.
//   - Baseline — Hopcroft–Karp on the expanded request graph, the paper's
//     general-case comparator.
//
// A scheduler is a plain value: it carries preallocated scratch sized to
// its conversion model, starts no goroutines and needs no Close. It is NOT
// safe for concurrent use. The paper deploys one scheduler per output
// fiber; what that means for software is that the per-fiber instances are
// independent, and since a scheduler keeps no state between calls, one
// instance can serve any number of fibers in turn. Package interconnect
// therefore runs one scheduler per member of the worker crew that claims
// whole ports per slot, and a cluster node one per controller session.
package core

import (
	"fmt"

	"wdmsched/internal/wavelength"
)

// Unassigned marks an output channel with no granted request in a Result.
const Unassigned = -1

// Result is one slot's scheduling decision for one output fiber.
type Result struct {
	// ByOutput[b] is the input wavelength granted output channel b, or
	// Unassigned. Occupied channels are always Unassigned.
	ByOutput []int
	// Granted[w] counts the requests granted per input wavelength; the
	// fairness layer expands these counts to concrete requests.
	Granted []int
	// Size is the matching cardinality: number of granted requests.
	Size int
	// BreakChannel is the output channel whose assignment the
	// break-first-available family broke to admit one more request
	// (paper §IV), or Unassigned when the slot needed no break. Only
	// the BFA schedulers set it; all others leave it Unassigned.
	BreakChannel int

	// The channel index, ByOutput inverted: wavelength w's granted
	// channels are chans[chanOff[w]:][:Granted[w]], ascending (Channels).
	// Every scheduler leaves it consistent with ByOutput — FastBFA by
	// emitting one contiguous run per wavelength as it grants, the others
	// through one counting-sort pass (IndexChannels) — so the fairness
	// layer expands the grants without an O(k) ByOutput scan per
	// wavelength.
	chans   []int
	chanOff []int
}

// NewResult allocates an empty Result for k wavelengths (all channels
// Unassigned). Its four k-vectors share one backing array.
func NewResult(k int) *Result {
	buf := make([]int, 4*k)
	r := &Result{
		ByOutput: buf[:k:k],
		Granted:  buf[k : 2*k : 2*k],
		chans:    buf[2*k : 3*k : 3*k],
		chanOff:  buf[3*k:],
	}
	r.Reset()
	return r
}

// Reset clears the result for reuse. With every Granted count zero the
// channel index is empty whatever its offsets hold.
func (r *Result) Reset() {
	for i := range r.ByOutput {
		r.ByOutput[i] = Unassigned
		r.Granted[i] = 0
	}
	r.Size = 0
	r.BreakChannel = Unassigned
}

// CopyFrom copies src into r. Both must have the same k. The channel
// index is not copied: call IndexChannels on r when it is needed.
func (r *Result) CopyFrom(src *Result) {
	copy(r.ByOutput, src.ByOutput)
	copy(r.Granted, src.Granted)
	r.Size = src.Size
	r.BreakChannel = src.BreakChannel
}

// Channels returns the output channels granted to wavelength w, in
// ascending order: Granted[w] of them. The slice aliases the Result and is
// valid until it is next written.
func (r *Result) Channels(w int) []int {
	return r.chans[r.chanOff[w]:][:r.Granted[w]]
}

// IndexChannels rebuilds the channel index from ByOutput and Granted: the
// runs are laid out in wavelength order at the prefix sums of Granted, and
// one ascending pass over the channels drops each into its wavelength's
// run, so every run comes out ascending. It panics if ByOutput and
// Granted disagree. Schedulers call it before returning; a caller that
// fills a Result by hand (a decoder) calls it once ByOutput and Granted
// are final.
func (r *Result) IndexChannels() {
	off := 0
	for w, g := range r.Granted {
		r.chanOff[w] = off
		off += g
	}
	// chanOff is the fill cursor of each run; the rewind below checks
	// that each one stopped exactly at its run's end.
	for b, w := range r.ByOutput {
		if w != Unassigned {
			r.chans[r.chanOff[w]] = b
			r.chanOff[w]++
		}
	}
	end := 0
	for w, g := range r.Granted {
		end += g
		if r.chanOff[w] != end {
			panic(fmt.Sprintf("core: wavelength %d holds %d channels for %d grants", w, r.Granted[w]-(end-r.chanOff[w]), g))
		}
		r.chanOff[w] = end - g
	}
}

// Scheduler is one output fiber's contention resolver. Schedule reads the
// request vector count (len k) and the occupancy mask occupied (len k, or
// nil meaning all channels available) and writes the decision into res,
// which must have been created with NewResult(k). Implementations reuse
// internal scratch and are not safe for concurrent use.
//
// ScheduleMasked additionally honors a per-channel fault mask (len k, or
// nil meaning all channels healthy): dark channels are removed from the
// request graph and converter-failed channels carry only their own
// wavelength (see ChannelState). With a nil or all-healthy mask it is
// bit-for-bit identical to Schedule; with faults the exact schedulers stay
// exact on the degraded graph (see the exchange argument in
// channelstate.go) and the single-break approximations keep their
// Theorem 3 bound.
//
// A scheduler keeps no state between calls that can change a Result: each
// call's Result is a function of its arguments alone, whatever the same
// instance scheduled before. Scratch that only faults use is built on the
// first degraded mask. Sharing one instance across output fibers depends
// on both.
type Scheduler interface {
	Name() string
	Conversion() wavelength.Conversion
	Schedule(count []int, occupied []bool, res *Result)
	ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result)
}

// checkInput panics on malformed scheduler input: scheduling runs per time
// slot in a hot loop and malformed shapes are caller bugs, not runtime
// conditions.
func checkInput(conv wavelength.Conversion, count []int, occupied []bool, res *Result) {
	checkShape(conv, count, occupied, res)
	checkCounts(count)
}

// checkShape is the length half of checkInput.
func checkShape(conv wavelength.Conversion, count []int, occupied []bool, res *Result) {
	k := conv.K()
	if len(count) != k {
		panic(fmt.Sprintf("core: count length %d != k %d", len(count), k))
	}
	if occupied != nil && len(occupied) != k {
		panic(fmt.Sprintf("core: occupied length %d != k %d", len(occupied), k))
	}
	if res == nil || len(res.ByOutput) != k || len(res.Granted) != k {
		panic(fmt.Sprintf("core: result not sized for k=%d", k))
	}
}

// checkCounts is the value half of checkInput.
func checkCounts(count []int) {
	for w, c := range count {
		if c < 0 {
			panic(fmt.Sprintf("core: negative request count %d at wavelength %d", c, w))
		}
	}
}

// Validate checks that res is a feasible assignment for the given request
// vector and occupancy under conv: every grant convertible, no occupied
// channel assigned, per-wavelength grants within the request counts, and
// Size consistent. It returns nil for feasible results. Unlike checkInput
// this returns an error: it judges scheduler output, which tests and the
// fabric feasibility layer want to report rather than crash on.
func Validate(conv wavelength.Conversion, count []int, occupied []bool, res *Result) error {
	k := conv.K()
	if len(res.ByOutput) != k || len(res.Granted) != k {
		return fmt.Errorf("core: result not sized for k=%d", k)
	}
	granted := make([]int, k)
	size := 0
	for b, w := range res.ByOutput {
		if w == Unassigned {
			continue
		}
		if w < 0 || w >= k {
			return fmt.Errorf("core: channel %d assigned invalid wavelength %d", b, w)
		}
		if occupied != nil && occupied[b] {
			return fmt.Errorf("core: occupied channel %d assigned wavelength %d", b, w)
		}
		if !conv.CanConvert(wavelength.Wavelength(w), wavelength.Wavelength(b)) {
			return fmt.Errorf("core: grant λ%d→channel %d not convertible under %v", w, b, conv)
		}
		granted[w]++
		size++
	}
	for w := 0; w < k; w++ {
		if granted[w] != res.Granted[w] {
			return fmt.Errorf("core: Granted[%d]=%d but ByOutput implies %d", w, res.Granted[w], granted[w])
		}
		if granted[w] > count[w] {
			return fmt.Errorf("core: wavelength %d granted %d of %d requests", w, granted[w], count[w])
		}
	}
	if size != res.Size {
		return fmt.Errorf("core: Size=%d but ByOutput implies %d", res.Size, size)
	}
	return nil
}

// TotalRequests sums a request vector.
func TotalRequests(count []int) int {
	n := 0
	for _, c := range count {
		n += c
	}
	return n
}
