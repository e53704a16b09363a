// Package fabric models the hardware side of the WDM interconnect of the
// paper's Fig. 1: the Nk-bit request registers the scheduling hardware
// reads (Section II-B), the fair tie-break selectors among same-wavelength
// requests (Section III cites round-robin/random selection à la iSLIP/PIM),
// and the physical datapath — demultiplexers, switching fabric crosspoints,
// Nd-input combiners, limited range converters, multiplexers — against
// which a schedule's physical feasibility is checked.
package fabric

import (
	"fmt"
	"math/bits"
)

// BitVector is a fixed-width bit set. The paper implements the left side of
// each output fiber's request graph as an Nk×1 binary vector ("an Nk bit
// register"), with bit (i·k + j) set when λj on input fiber i is destined
// for this output fiber; BitVector is that register.
//
// The vector is stored as packed little-endian uint64 words so schedulers
// can run word-parallel kernels over it (64 channels per instruction). All
// operations maintain the canonical-tail invariant: bits at positions ≥ n
// in the last word are always zero, so Count, NextSet and word-level
// consumers never observe ghost channels when n is not a multiple of 64.
type BitVector struct {
	words []uint64
	n     int
}

// wordBits is the width of one storage word.
const wordBits = 64

// NewBitVector returns an all-zero vector of n bits.
func NewBitVector(n int) *BitVector {
	if n < 0 {
		panic("fabric: negative BitVector size")
	}
	return &BitVector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (v *BitVector) Len() int { return v.n }

// Words returns the number of storage words, ⌈n/64⌉.
func (v *BitVector) Words() int { return len(v.words) }

// Word returns the i-th 64-bit word: bit b of Word(i) is vector bit
// i·64 + b. High bits beyond Len in the last word are always zero
// (the canonical-tail invariant).
func (v *BitVector) Word(i int) uint64 { return v.words[i] }

// SetWord overwrites the i-th 64-bit word. Bits beyond Len in the last
// word are masked off, preserving the canonical-tail invariant, so bulk
// packers may store a full accumulator word unconditionally.
func (v *BitVector) SetWord(i int, w uint64) {
	if i == len(v.words)-1 {
		w &= v.tailMask()
	}
	v.words[i] = w
}

// tailMask returns the mask of valid bits in the last word, or an
// all-ones mask when n is a multiple of 64 (and for n == 0, where there
// is no last word to mask).
func (v *BitVector) tailMask() uint64 {
	if r := uint(v.n) & 63; r != 0 {
		return (1 << r) - 1
	}
	return ^uint64(0)
}

// clampTail re-establishes the canonical-tail invariant after a bulk word
// operation that may have set bits at positions ≥ n in the last word.
func (v *BitVector) clampTail() {
	if len(v.words) > 0 {
		v.words[len(v.words)-1] &= v.tailMask()
	}
}

func (v *BitVector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("fabric: bit %d out of range %d", i, v.n))
	}
}

func (v *BitVector) checkSame(o *BitVector) {
	if v.n != o.n {
		panic(fmt.Sprintf("fabric: bit vector size mismatch %d != %d", v.n, o.n))
	}
}

// Set sets bit i.
func (v *BitVector) Set(i int) {
	v.check(i)
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (v *BitVector) Clear(i int) {
	v.check(i)
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Get reports bit i.
func (v *BitVector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Reset clears every bit.
func (v *BitVector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Fill sets every bit in [0, n).
func (v *BitVector) Fill() {
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.clampTail()
}

// CopyFrom overwrites v with o. Both must have the same length.
func (v *BitVector) CopyFrom(o *BitVector) {
	v.checkSame(o)
	copy(v.words, o.words)
}

// And intersects v with o in place, word-parallel.
func (v *BitVector) And(o *BitVector) {
	v.checkSame(o)
	for i, w := range o.words {
		v.words[i] &= w
	}
}

// Or unions o into v, word-parallel.
func (v *BitVector) Or(o *BitVector) {
	v.checkSame(o)
	for i, w := range o.words {
		v.words[i] |= w
	}
}

// AndNot clears every bit of v that is set in o (v ← v ∧ ¬o),
// word-parallel. This is the §V occupied-channel reduction as one
// instruction per 64 channels: availability = requests ∧ ¬occupied.
func (v *BitVector) AndNot(o *BitVector) {
	v.checkSame(o)
	for i, w := range o.words {
		v.words[i] &^= w
	}
}

// SetRange sets bits [lo, hi] (inclusive, clamped to the vector) using
// word-masked stores.
func (v *BitVector) SetRange(lo, hi int) {
	lo, hi, ok := v.clampRange(lo, hi)
	if !ok {
		return
	}
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi)&63)
	if lw == hw {
		v.words[lw] |= loMask & hiMask
		return
	}
	v.words[lw] |= loMask
	for i := lw + 1; i < hw; i++ {
		v.words[i] = ^uint64(0)
	}
	v.words[hw] |= hiMask
}

// ClearRange clears bits [lo, hi] (inclusive, clamped to the vector) using
// word-masked stores.
func (v *BitVector) ClearRange(lo, hi int) {
	lo, hi, ok := v.clampRange(lo, hi)
	if !ok {
		return
	}
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi)&63)
	if lw == hw {
		v.words[lw] &^= loMask & hiMask
		return
	}
	v.words[lw] &^= loMask
	for i := lw + 1; i < hw; i++ {
		v.words[i] = 0
	}
	v.words[hw] &^= hiMask
}

// clampRange clips [lo, hi] to [0, n) and reports whether anything is left.
func (v *BitVector) clampRange(lo, hi int) (int, int, bool) {
	if lo < 0 {
		lo = 0
	}
	if hi > v.n-1 {
		hi = v.n - 1
	}
	return lo, hi, lo <= hi
}

// Count returns the number of set bits.
func (v *BitVector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi] (inclusive,
// clamped), popcounting whole words between the masked ends.
func (v *BitVector) CountRange(lo, hi int) int {
	lo, hi, ok := v.clampRange(lo, hi)
	if !ok {
		return 0
	}
	lw, hw := lo>>6, hi>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi)&63)
	if lw == hw {
		return bits.OnesCount64(v.words[lw] & loMask & hiMask)
	}
	c := bits.OnesCount64(v.words[lw]&loMask) + bits.OnesCount64(v.words[hw]&hiMask)
	for i := lw + 1; i < hw; i++ {
		c += bits.OnesCount64(v.words[i])
	}
	return c
}

// NextSet returns the index of the first set bit at position ≥ from, or −1
// if there is none. from may be ≥ Len (returns −1) but not negative; a
// masked trailing-zeros scan costs O(1) per word touched.
func (v *BitVector) NextSet(from int) int {
	if from < 0 {
		panic(fmt.Sprintf("fabric: NextSet from negative bit %d", from))
	}
	if from >= v.n {
		return -1
	}
	wi := from >> 6
	w := v.words[wi] >> (uint(from) & 63)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(v.words); wi++ {
		if v.words[wi] != 0 {
			return wi<<6 + bits.TrailingZeros64(v.words[wi])
		}
	}
	return -1
}

// ShiftRangeInto ORs bits [lo, hi] of v, shifted by delta positions, into
// dst: for every set bit i in [lo, hi] with i+delta inside dst, bit
// i+delta of dst is set. The copy is word-parallel (two shifts per word).
// Used to build rotated views of circular request/occupancy state: a ring
// rotation is two ShiftRangeInto calls on a Reset destination.
func (v *BitVector) ShiftRangeInto(dst *BitVector, lo, hi, delta int) {
	lo, hi, ok := v.clampRange(lo, hi)
	if !ok {
		return
	}
	// Clip the destination window [lo+delta, hi+delta] to dst.
	if lo+delta < 0 {
		lo = -delta
	}
	if hi+delta > dst.n-1 {
		hi = dst.n - 1 - delta
	}
	if lo > hi {
		return
	}
	for i := lo; i <= hi; {
		wi := i >> 6
		// Bits [i, wordEnd] of this source word, aligned down to bit 0.
		w := v.words[wi] >> (uint(i) & 63)
		span := wordBits - i&63
		if rem := hi - i + 1; span > rem {
			span = rem
			w &= (1 << uint(span)) - 1
		}
		j := i + delta
		dw := j >> 6
		off := uint(j) & 63
		dst.words[dw] |= w << off
		if off != 0 && int(off)+span > wordBits && dw+1 < len(dst.words) {
			dst.words[dw+1] |= w >> (wordBits - off)
		}
		i += span
	}
	dst.clampTail()
}

// ForEach calls fn for every set bit in ascending order.
func (v *BitVector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// RequestRegister is one output fiber's Nk-bit request register plus the
// derived per-wavelength request lists the selector consumes.
type RequestRegister struct {
	n, k int
	bits *BitVector
}

// NewRequestRegister builds a register for an N×N interconnect with k
// wavelengths per fiber.
func NewRequestRegister(n, k int) *RequestRegister {
	if n <= 0 || k <= 0 {
		panic(fmt.Sprintf("fabric: invalid register shape N=%d k=%d", n, k))
	}
	return &RequestRegister{n: n, k: k, bits: NewBitVector(n * k)}
}

// Mark records that λw on input fiber in is destined for this output fiber
// in the current slot. Marking the same channel twice panics: one input
// wavelength channel carries at most one packet per slot.
func (r *RequestRegister) Mark(in, w int) {
	if in < 0 || in >= r.n || w < 0 || w >= r.k {
		panic(fmt.Sprintf("fabric: Mark(%d,%d) out of %dx%d", in, w, r.n, r.k))
	}
	i := in*r.k + w
	if r.bits.Get(i) {
		panic(fmt.Sprintf("fabric: channel (fiber %d, λ%d) marked twice in one slot", in, w))
	}
	r.bits.Set(i)
}

// Marked reports whether (in, w) is requesting.
func (r *RequestRegister) Marked(in, w int) bool {
	return r.bits.Get(in*r.k + w)
}

// Reset clears the register for the next slot.
func (r *RequestRegister) Reset() { r.bits.Reset() }

// CountVector fills count (len k) with the per-wavelength request counts —
// the request vector the scheduler consumes.
func (r *RequestRegister) CountVector(count []int) {
	if len(count) != r.k {
		panic(fmt.Sprintf("fabric: count length %d != k %d", len(count), r.k))
	}
	for w := range count {
		count[w] = 0
	}
	r.bits.ForEach(func(i int) {
		count[i%r.k]++
	})
}

// Requesters appends the input fibers requesting on wavelength w, in fiber
// order, to dst and returns it.
//
// The scan is strided and word-masked: bit (in·k + w) is tested with one
// incrementally maintained word/bit index per fiber (no per-bit bounds
// check), and an all-zero register word skips every fiber whose bit falls
// inside it in one step — the common sparse-register case costs O(Nk/64)
// word loads instead of N indexed Get calls.
func (r *RequestRegister) Requesters(w int, dst []int) []int {
	if w < 0 || w >= r.k {
		panic(fmt.Sprintf("fabric: Requesters wavelength %d out of k=%d", w, r.k))
	}
	words := r.bits.words
	idx := w
	for in := 0; in < r.n; {
		word := words[idx>>6]
		if word == 0 {
			// Skip every stride landing in this zero word: the next
			// candidate bit at or beyond the word boundary.
			skip := (wordBits - idx&63 + r.k - 1) / r.k
			in += skip
			idx += skip * r.k
			continue
		}
		if word&(1<<(uint(idx)&63)) != 0 {
			dst = append(dst, in)
		}
		in++
		idx += r.k
	}
	return dst
}

// Total returns the number of pending requests.
func (r *RequestRegister) Total() int { return r.bits.Count() }
