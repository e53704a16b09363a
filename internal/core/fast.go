package core

import (
	"math/bits"
	"slices"

	"wdmsched/internal/fabric"
	"wdmsched/internal/wavelength"
)

// The word-parallel Break and First Available kernel — what NewExact builds
// for circular conversion.
//
// FastBFA keeps the per-slot state — which wavelengths have pending
// requests, which output channels are free — as packed uint64 words
// (fabric.BitVector) instead of []int / []bool slices. The scalar
// BreakFirstAvailable remains the Table 3 reference transcription; the
// kernel must produce byte-identical Results, which the differential
// fuzzers in fuzz_test.go enforce.
//
// What becomes word-parallel:
//
//   - The §V occupancy overlay (and, through masker.apply, the fault
//     mask) is packed once per slot into a free-channel bitset, in the same
//     two passes that validate the request vector, pack its nonzero set,
//     sum it and clear the Result.
//   - BFA evaluates each of its d candidate breaking edges on one shared
//     rotation of the request vector (the nonzero wavelengths in ring
//     order from w0, with their ring offsets, built once per slot) instead
//     of re-walking all k wavelengths per candidate, and sizes the reduced
//     First Available sweep by rank/select over a rotated free-channel
//     bitset — a few words per bucket rather than O(k) channels. The
//     Section IV-A reduced intervals are resolved with offset additions
//     only (no ring divisions on the candidate path), and only the winning
//     candidate is materialized, by re-walking its buckets and emitting
//     exactly the positions the sizing pass counted — the same positions
//     the scalar reduced sweep grants, so the assignment matches
//     BreakFirstAvailable bit for bit.
//
// First Available has no such kernel: its scalar sweep is already one pass
// at a few nanoseconds per channel, and packing the bitsets costs a pass of
// its own (the measurements are in DESIGN.md §12).

// wordSpan returns the bounds of the wi-th 64-element chunk of a k-vector.
func wordSpan(wi, k int) (int, int) {
	base := wi << 6
	end := base + 64
	if end > k {
		end = k
	}
	return base, end
}

// rangeWord returns word wi of v restricted to the bit range [lo, hi]; wi
// must lie between the words holding lo and hi, inclusive.
func rangeWord(v *fabric.BitVector, wi, lo, hi int) uint64 {
	w := v.Word(wi)
	if wi == lo>>6 {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if wi == hi>>6 {
		w &= ^uint64(0) >> (63 - uint(hi)&63)
	}
	return w
}

// countSelect returns t = min(limit, popcount of v over [lo, hi]) and the
// position of the t-th set bit in that range (undefined when t == 0).
// 0 ≤ lo ≤ hi < v.Len() and limit ≥ 1 are the caller's responsibility.
func countSelect(v *fabric.BitVector, lo, hi, limit int) (int, int) {
	taken, pos := 0, -1
	for wi, whi := lo>>6, hi>>6; wi <= whi; wi++ {
		w := rangeWord(v, wi, lo, hi)
		if w == 0 {
			continue
		}
		n := bits.OnesCount64(w)
		if taken+n < limit {
			taken += n
			pos = wi<<6 + 63 - bits.LeadingZeros64(w)
			continue
		}
		// The limit-th set bit is inside this word: clear the bits below it
		// and read its position with TrailingZeros64.
		for need := limit - taken; need > 1; need-- {
			w &= w - 1
		}
		return limit, wi<<6 + bits.TrailingZeros64(w)
	}
	return taken, pos
}

// lastSet returns the position of the highest set bit of v in [lo, hi], or
// −1 when there is none (lo > hi included). 0 ≤ lo and hi < v.Len() are the
// caller's responsibility.
func lastSet(v *fabric.BitVector, lo, hi int) int {
	if lo > hi {
		return -1
	}
	for wi, wlo := hi>>6, lo>>6; wi >= wlo; wi-- {
		if w := rangeWord(v, wi, lo, hi); w != 0 {
			return wi<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// rotBucket is one nonzero wavelength of the slot's request vector as the
// candidate loop sees it: ring offset from w0 and request count.
type rotBucket struct {
	wave, off, count int
}

// FastBFA is the word-parallel Break and First Available kernel: the same
// exact O(dk) algorithm as BreakFirstAvailable (Table 3), with each of the
// d candidate breaking edges sized against a shared rotation of the
// request vector and a rotated free-channel bitset, and only the winner
// materialized.
type FastBFA struct {
	conv    wavelength.Conversion
	mask    masker
	nonzero *fabric.BitVector // wavelengths with pending requests
	free    *fabric.BitVector // unoccupied output channels
	// rotFree is the free-channel set in the reduced position space of the
	// candidate being sized; rotBest the same for the best candidate so far.
	// The two swap when a candidate takes the lead, so emission never
	// rotates again.
	rotFree, rotBest *fabric.BitVector
	rot              []rotBucket // nonzero wavelengths in ring order from w0 (rot[0] is w0, off 0)
	unassigned       []int       // k × Unassigned, the image of a cleared Result.ByOutput
	// Emission cursors: fill is the next free slot of the Result's channel
	// index, wrap the index of the first channel past the ring's end (−1
	// before the fold).
	fill, wrap int
	// What the last Schedule did, for the in-package tests: candidates
	// sized, and the reachable-channel bound (−1 when it was not computed).
	sized, hall int
}

// hallMinLeft is how many candidates must still be left to run before
// Schedule computes the reachable-channel bound. The walk costs about as
// much as sizing one candidate, so with fewer left (every d ≤ 4, such as
// d = 3) it cannot pay for itself and the loop keeps the plain bound.
const hallMinLeft = 4

// NewFastBFA builds the kernel; conv must be circular symmetrical, like
// NewBreakFirstAvailable.
func NewFastBFA(conv wavelength.Conversion) (*FastBFA, error) {
	if err := requireCircular(conv); err != nil {
		return nil, err
	}
	k := conv.K()
	unassigned := make([]int, k)
	for b := range unassigned {
		unassigned[b] = Unassigned
	}
	return &FastBFA{
		conv:       conv,
		mask:       newMasker(k),
		nonzero:    fabric.NewBitVector(k),
		free:       fabric.NewBitVector(k),
		rotFree:    fabric.NewBitVector(k),
		rotBest:    fabric.NewBitVector(k),
		rot:        make([]rotBucket, 0, k),
		unassigned: unassigned,
	}, nil
}

// Name implements Scheduler.
func (s *FastBFA) Name() string { return "fast-break-first-available" }

// Conversion implements Scheduler.
func (s *FastBFA) Conversion() wavelength.Conversion { return s.conv }

// pack is the front half of Schedule: what checkInput's value check,
// Result.Reset, two bitset packers, TotalRequests and a popcount did in
// five passes. One pass over count validates it (checkInput's
// negative-count panic), packs its nonzero set and sums it; one over
// occupied packs and counts the free channels; res is cleared by two bulk
// memory operations. It returns the request total and the free-channel
// count and leaves res as Reset would.
func (s *FastBFA) pack(count []int, occupied []bool, res *Result) (total, avail int) {
	k := len(count)
	neg := 0
	for wi := 0; wi<<6 < k; wi++ {
		base, end := wordSpan(wi, k)
		var acc uint64
		for j, c := range count[base:end] {
			neg |= c
			total += c
			acc |= uint64(-c) >> 63 << (uint(j) & 63) // c > 0, given c ≥ 0
		}
		s.nonzero.SetWord(wi, acc)
	}
	if neg < 0 {
		checkCounts(count)
	}
	if occupied == nil {
		s.free.Fill()
		avail = k
	} else {
		for wi := 0; wi<<6 < k; wi++ {
			base, end := wordSpan(wi, k)
			var acc uint64
			for j, o := range occupied[base:end] {
				if !o {
					acc |= 1 << (uint(j) & 63)
				}
			}
			s.free.SetWord(wi, acc)
			avail += bits.OnesCount64(acc)
		}
	}
	clear(res.Granted)
	copy(res.ByOutput, s.unassigned)
	res.Size = 0
	res.BreakChannel = Unassigned
	return total, avail
}

// firstMatchable is breaker.firstMatchable on the packed state: the window
// walk becomes at most two CountRange calls per nonzero wavelength, and
// none at all when every channel is free.
func (s *FastBFA) firstMatchable(avail int) int {
	conv := s.conv
	k := conv.K()
	if avail == k {
		return s.nonzero.NextSet(0)
	}
	e, d := conv.MinusReach(), conv.Degree()
	for w := s.nonzero.NextSet(0); w >= 0; w = s.nonzero.NextSet(w + 1) {
		lo := ringMod(w-e, k)
		if hi := lo + d - 1; hi < k {
			if s.free.CountRange(lo, hi) > 0 {
				return w
			}
		} else if s.free.CountRange(lo, k-1) > 0 || s.free.CountRange(0, hi-k) > 0 {
			return w
		}
	}
	return -1
}

// reachable returns how many of the avail free channels lie inside the
// conversion window of at least one nonzero wavelength: the neighbourhood
// side of Hall's theorem, an upper bound on every matching of the slot.
// Only a run of d or more ring-consecutive wavelengths without requests
// leaves channels outside every window — between nonzero w_a and the next
// nonzero w_b, channels w_a+f+1 … w_b−e−1 — so the walk jumps from each
// nonzero wavelength to the last one within d ahead and counts free
// channels only across a real gap: about 2k/d steps, not one per bucket.
func (s *FastBFA) reachable(avail int) int {
	k := s.conv.K()
	e, f, d := s.conv.MinusReach(), s.conv.PlusReach(), s.conv.Degree()
	first := s.nonzero.NextSet(0)
	if first < 0 {
		return 0
	}
	a := first
	for {
		if b := lastSet(s.nonzero, a+1, min(a+d, k-1)); b >= 0 {
			a = b // every channel from a's window to b's is reachable
			continue
		}
		b := s.nonzero.NextSet(a + 1)
		if b < 0 {
			break
		}
		avail -= s.free.CountRange(a+f+1, b-e-1)
		a = b
	}
	// a is the last nonzero wavelength; the gap back to the first one
	// crosses the ring's wrap and may itself wrap.
	if lo, hi := a+f+1, first+k-e-1; lo <= hi {
		switch {
		case lo >= k:
			avail -= s.free.CountRange(lo-k, hi-k)
		case hi < k:
			avail -= s.free.CountRange(lo, hi)
		default:
			avail -= s.free.CountRange(lo, k-1) + s.free.CountRange(0, hi-k)
		}
	}
	return avail
}

// appendRot appends the nonzero wavelengths in [lo, hi], ascending, to the
// slot's rotation with ring offset w+shift.
func (s *FastBFA) appendRot(count []int, lo, hi, shift int) {
	for wi, whi := lo>>6, hi>>6; wi <= whi; wi++ {
		for word := rangeWord(s.nonzero, wi, lo, hi); word != 0; word &= word - 1 {
			w := wi<<6 + bits.TrailingZeros64(word)
			s.rot = append(s.rot, rotBucket{wave: w, off: w + shift, count: count[w]})
		}
	}
}

// rotateFree writes the free-channel set rotated into the reduced position
// space of breaking channel u into s.rotFree: position p ∈ [0, k−2] is
// channel (u+1+p) mod k. Position k−1 is channel u itself, reserved for
// the breaking edge; bucket ENDs stay below it. Two word-parallel shifted
// ORs cover the wrap.
func (s *FastBFA) rotateFree(u, k int) {
	rot := s.rotFree
	rot.Reset()
	if u+1 <= k-1 {
		s.free.ShiftRangeInto(rot, u+1, k-1, -(u + 1))
	}
	s.free.ShiftRangeInto(rot, 0, u, k-1-u)
}

// bucketRange resolves the Section IV-A reduced adjacency interval of the
// bucket at ring offset o from w0, for the candidate with loop index i
// (breaking channel u ≡ w0−e+i mod k), as reduced positions [pb, pe]. With
// the reduction p(x) = (x−u−1) mod k the scalar scheduleBreakAt cases
// collapse to offset additions — no ring division:
//
//	o ∈ [1, i]        (plus side, [ur+1, w+f])   → [0, o+d−2−i]
//	o ∈ [k−d+1+i, k−1] (minus side, [w−e, ur−1]) → [o−i−1, k−2]
//	otherwise          (untouched, [w−e, w+f])   → [o−i−1, o+d−2−i]
//
// All three are provably within [0, k−2] for non-full-range conversion
// (d ≤ k−1), and never empty, matching exactly what the scalar push keeps.
func bucketRange(o, i, d, k int) (int, int) {
	if o <= i {
		return 0, o + d - 2 - i
	}
	pb := o - i - 1
	if o >= k-d+1+i {
		return pb, k - 2
	}
	return pb, o + d - 2 - i
}

// evalBreakAt returns the matching size (breaking edge included) that
// scheduleBreakAt(count, occupied, w0, u) would produce, without
// materializing the assignment; i is the candidate's index in the loop of
// Table 3, so u ≡ w0−e+i (mod k), and s.rotFree holds u's rotation. It
// walks the precomputed nonzero-wavelength rotation and sizes each bucket
// of the reduced convex graph by rank/select over the rotated free-channel
// words.
//
// The greedy here is bucket-driven where the scalar sweep is
// channel-driven, but the two agree: buckets open in index order behind a
// prefix-max effective BEGIN (the scalar tail pointer), and within the
// open window the scalar head pointer grants strictly in bucket order, so
// bucket j's grants are exactly the first min(count, available) free
// positions at or after max(effective BEGIN, previous bucket's last
// grant + 1), capped at its END.
func (s *FastBFA) evalBreakAt(i int) int {
	k, d := s.conv.K(), s.conv.Degree()
	rot := s.rotFree

	size := 1 // the breaking edge a_i→b_u
	cursor := 0
	// The leftover w0 requests form the first bucket, [0, d−2−i]; it is
	// empty exactly when i = d−1 (the scalar push's hi < lo case).
	if c := s.rot[0].count - 1; c > 0 && i < d-1 {
		if t, pos := countSelect(rot, 0, d-2-i, c); t > 0 {
			size += t
			cursor = pos + 1
		}
	}
	runBegin := 0
	for _, bk := range s.rot[1:] {
		if cursor > k-2 {
			break // every reduced position is granted or behind the cursor
		}
		pb, pe := bucketRange(bk.off, i, d, k)
		if pb > runBegin {
			runBegin = pb // buckets open in index order (scalar tail pointer)
		}
		x := cursor
		if runBegin > x {
			x = runBegin
		}
		if pe < x {
			continue
		}
		t, pos := countSelect(rot, x, pe, bk.count)
		if t == 0 {
			continue
		}
		size += t
		cursor = pos + 1
	}
	return size
}

// take grants up to limit free positions of the winner's rotation
// (s.rotBest) in [lo, hi] to wavelength w — the emission twin of
// countSelect: it visits the identical positions, writes each one's
// channel (u+1+p, folded around the ring) into res and appends it to res's
// channel index at s.fill, recording in s.wrap the index of the first
// channel the fold wrapped.
func (s *FastBFA) take(lo, hi, limit, w, u int, res *Result) (int, int) {
	rot, k := s.rotBest, len(res.ByOutput)
	n, taken, pos := s.fill, 0, -1
words:
	for wi, whi := lo>>6, hi>>6; wi <= whi; wi++ {
		for word := rangeWord(rot, wi, lo, hi); word != 0; word &= word - 1 {
			p := wi<<6 + bits.TrailingZeros64(word)
			b := u + 1 + p
			if b >= k {
				b -= k
				if s.wrap < 0 {
					s.wrap = n
				}
			}
			res.ByOutput[b] = w
			res.chans[n] = b
			n++
			taken++
			pos = p
			if taken == limit {
				break words
			}
		}
	}
	res.Granted[w] += taken
	res.Size += taken
	s.fill = n
	return taken, pos
}

// straighten sorts the one run of the channel index the ring wrap can
// split. The emission is cyclically ascending from u, so the run holding
// the first wrapped channel (index s.wrap) has its channels above u first,
// then those below it: one rotation at the wrap makes it ascending. A run
// that the wrap opens, and every other run, is ascending already.
func (s *FastBFA) straighten(res *Result) {
	if s.wrap <= 0 {
		return
	}
	w := res.ByOutput[res.chans[s.wrap]]
	start := res.chanOff[w]
	if at := s.wrap - start; at > 0 {
		run := res.chans[start:][:res.Granted[w]]
		slices.Reverse(run[:at])
		slices.Reverse(run[at:])
		slices.Reverse(run)
	}
}

// emitBreakAt materializes the winning candidate's assignment into res:
// the same bucket walk as evalBreakAt, over the winner's rotation kept in
// s.rotBest, with counting replaced by emission, plus the breaking edge.
// The positions granted are exactly the ones the sizing pass counted — the
// positions the scalar reduced sweep grants — so the emitted Result matches
// BreakFirstAvailable's bit for bit.
//
// The channel index comes out of the same walk: each bucket is one
// wavelength and one contiguous run, w0's run opening with the breaking
// edge b_u so the whole emission is cyclically ascending from u, and
// straighten then sorts the one run the ring wrap can split.
func (s *FastBFA) emitBreakAt(u, i int, res *Result) {
	k, d := s.conv.K(), s.conv.Degree()
	w0 := s.rot[0].wave

	res.ByOutput[u] = w0
	res.Granted[w0]++
	res.Size++
	res.BreakChannel = u
	res.chanOff[w0] = 0
	res.chans[0] = u
	s.fill, s.wrap = 1, -1
	cursor := 0
	if c := s.rot[0].count - 1; c > 0 && i < d-1 {
		if t, pos := s.take(0, d-2-i, c, w0, u, res); t > 0 {
			cursor = pos + 1
		}
	}
	runBegin := 0
	for _, bk := range s.rot[1:] {
		if cursor > k-2 {
			break
		}
		pb, pe := bucketRange(bk.off, i, d, k)
		if pb > runBegin {
			runBegin = pb
		}
		x := cursor
		if runBegin > x {
			x = runBegin
		}
		if pe < x {
			continue
		}
		res.chanOff[bk.wave] = s.fill
		t, pos := s.take(x, pe, bk.count, bk.wave, u, res)
		if t == 0 {
			continue
		}
		cursor = pos + 1
	}
	s.straighten(res)
}

// Schedule implements Scheduler.
func (s *FastBFA) Schedule(count []int, occupied []bool, res *Result) {
	conv := s.conv
	if conv.IsFullRange() {
		checkInput(conv, count, occupied, res)
		res.Reset()
		fullRangeInto(conv, count, occupied, res)
		return
	}
	checkShape(conv, count, occupied, res)
	s.sized, s.hall = 0, -1
	bound, avail := s.pack(count, occupied, res)
	// Upper bound on any matching: min(requests, available channels).
	if avail < bound {
		bound = avail
	}
	if bound == 0 {
		return
	}
	w0 := s.firstMatchable(avail)
	if w0 < 0 {
		return
	}

	// One rotation of the request vector, reused across all d candidate
	// breaking edges: the nonzero wavelengths in ring order from w0, with
	// their ring offsets (0 for w0 itself).
	k := conv.K()
	s.rot = s.rot[:0]
	s.appendRot(count, w0, k-1, -w0)
	if w0 > 0 {
		s.appendRot(count, 0, w0-1, k-w0)
	}

	// Candidate loop of Table 3, sized without materializing; identical
	// order and tie-break (strictly-larger keeps the first winner) as the
	// scalar scheduler. It stops at the scalar bound, or — once the first
	// candidate sized misses that and hallMinLeft candidates are left — at
	// min(requests, reachable free channels). No later candidate can beat
	// one that meets a true upper bound on every matching, so the winner is
	// the one the scalar loop keeps.
	bestU, bestI, bestSize := -1, -1, 0
	e, d := conv.MinusReach(), conv.Degree()
	u := ringMod(w0-e, k)
	for i := 0; i < d; i++ {
		if s.free.Get(u) {
			s.rotateFree(u, k)
			s.sized++
			if sz := s.evalBreakAt(i); sz > bestSize {
				bestU, bestI, bestSize = u, i, sz
				s.rotFree, s.rotBest = s.rotBest, s.rotFree
			}
			if bestSize >= bound {
				break
			}
			if s.hall < 0 && d-1-i >= hallMinLeft {
				s.hall = s.reachable(avail)
				if bound = min(bound, s.hall); bestSize >= bound {
					break
				}
			}
		}
		u++
		if u == k {
			u = 0
		}
	}
	// Materialize only the winner.
	s.emitBreakAt(bestU, bestI, res)
}

// ScheduleMasked implements Scheduler, like
// BreakFirstAvailable.ScheduleMasked.
func (s *FastBFA) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	cnt, occ := s.mask.apply(count, occupied, mask)
	s.Schedule(cnt, occ, res)
	s.mask.finish(res)
}

var _ Scheduler = (*FastBFA)(nil)
