package fabric

import (
	"fmt"
)

// HardwareFirstAvailable is a cycle-level model of the Section III
// hardware implementation of the First Available Algorithm: "all this can
// be implemented in hardware and the execution time of each step would be
// a constant. Thus, the time complexity of this algorithm is O(k)."
//
// The unit owns one output fiber's Nk-bit request register. Each clock
// cycle handles one output channel b (k cycles per slot):
//
//  1. a priority encoder finds the lowest input wavelength within b's
//     reach [b−f, b+e] that still has a pending request (a per-wavelength
//     presence line, the OR of that wavelength's N register bits);
//  2. the per-wavelength round-robin selector picks which input fiber's
//     bit is consumed (the fairness procedure the paper cites);
//  3. the chosen register bit is cleared and the grant latched.
//
// The model counts cycles so tests can pin the O(k) claim, and its grants
// are cross-checked against the count-vector algorithm in package core:
// same matching size, physically identified winners.
type HardwareFirstAvailable struct {
	n, k, e, f int
	reg        *RequestRegister
	sel        Selector
	pending    []int // per-wavelength pending-request count (presence lines)
	reqScratch []int
	cycles     int64
}

// NewHardwareFirstAvailable builds the unit for an N-fiber interconnect
// with k wavelengths and non-circular conversion reach (e, f). Circular
// conversion needs the breaking machinery and is handled at the
// algorithmic layer (core.BreakFirstAvailable / the d-unit parallel
// variant), not by this single-sweep datapath. The unit is a test oracle
// and benchmark model (BenchmarkHardwareFirstAvailable); no production
// path builds one.
func NewHardwareFirstAvailable(n, k, e, f int, sel Selector) (*HardwareFirstAvailable, error) {
	if n <= 0 || k <= 0 || e < 0 || f < 0 || e+f+1 > k {
		return nil, fmt.Errorf("fabric: invalid hardware shape N=%d k=%d e=%d f=%d", n, k, e, f)
	}
	if sel == nil {
		sel = NewRoundRobin(k)
	}
	return &HardwareFirstAvailable{
		n: n, k: k, e: e, f: f,
		reg:     NewRequestRegister(n, k),
		sel:     sel,
		pending: make([]int, k),
	}, nil
}

// Register exposes the unit's request register for the marking phase at
// the start of a slot.
func (h *HardwareFirstAvailable) Register() *RequestRegister { return h.reg }

// Cycles reports the total clock cycles consumed since construction.
func (h *HardwareFirstAvailable) Cycles() int64 { return h.cycles }

// Schedule runs one slot: k cycles over the output channels, consuming
// register bits. occupied (len k or nil) marks channels unavailable
// (Section V). It appends the slot's grants to dst — each the output
// channel, the input wavelength and the selected input fiber — and resets
// the register for the next slot.
func (h *HardwareFirstAvailable) Schedule(occupied []bool, dst []Grant) ([]Grant, error) {
	if occupied != nil && len(occupied) != h.k {
		return dst, fmt.Errorf("fabric: occupied length %d != k %d", len(occupied), h.k)
	}
	h.reg.CountVector(h.pending)
	for b := 0; b < h.k; b++ {
		h.cycles++ // one cycle per output channel, occupied or not
		if occupied != nil && occupied[b] {
			continue
		}
		lo := b - h.f
		if lo < 0 {
			lo = 0
		}
		hi := b + h.e
		if hi > h.k-1 {
			hi = h.k - 1
		}
		// Priority encoder: lowest wavelength in [lo, hi] with a pending
		// request. (A hardware encoder resolves this in one cycle; the
		// loop models its input lines.)
		w := -1
		for x := lo; x <= hi; x++ {
			if h.pending[x] > 0 {
				w = x
				break
			}
		}
		if w < 0 {
			continue
		}
		// Fair selection among the wavelength's requesting fibers, then
		// consume that fiber's register bit.
		h.reqScratch = h.reg.Requesters(w, h.reqScratch[:0])
		winner := h.sel.Pick(w, h.reqScratch, 1, nil)
		fiber := winner[0]
		h.reg.bits.Clear(fiber*h.k + w)
		h.pending[w]--
		dst = append(dst, Grant{
			InputFiber:      fiber,
			InputWavelength: w,
			OutputChannel:   b,
		})
	}
	h.reg.Reset()
	return dst, nil
}
