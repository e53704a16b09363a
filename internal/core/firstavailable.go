package core

import (
	"fmt"

	"wdmsched/internal/wavelength"
)

// FirstAvailable is the paper's First Available Algorithm (Table 2): an
// O(k) exact maximum-matching scheduler for non-circular symmetrical
// wavelength conversion, where the request graph is convex (Section III).
//
// For each output channel b in ascending order, it grants the first input
// wavelength — smallest index, matching the paper's left-vertex order —
// that still has an ungranted request and can convert to b. Theorem 1
// proves this specialization of Glover's algorithm is optimal because in
// wavelength order both interval endpoints BEGIN and END are monotone, so
// the first adjacent vertex is also a minimum-END vertex.
//
// Requests on the same wavelength are interchangeable for matching
// cardinality, so the scheduler works on per-wavelength counts; expanding
// count grants into concrete requests (with round-robin or random
// tie-break, as the paper suggests citing iSLIP/PIM) is the fairness
// layer's job.
type FirstAvailable struct {
	conv      wavelength.Conversion
	remaining []int
	mask      masker
}

// NewFirstAvailable builds a First Available scheduler for conv, which must
// be non-circular symmetrical (use BreakFirstAvailable for circular and
// FullRange for full range conversion).
func NewFirstAvailable(conv wavelength.Conversion) (*FirstAvailable, error) {
	if conv.Kind() != wavelength.NonCircular {
		return nil, fmt.Errorf("core: FirstAvailable requires non-circular conversion, have %v", conv.Kind())
	}
	return &FirstAvailable{conv: conv, remaining: make([]int, conv.K()), mask: newMasker(conv.K())}, nil
}

// Name implements Scheduler.
func (s *FirstAvailable) Name() string { return "first-available" }

// Conversion implements Scheduler.
func (s *FirstAvailable) Conversion() wavelength.Conversion { return s.conv }

// Schedule implements Scheduler in O(k): one ascending sweep over output
// channels with a single monotone wavelength pointer.
func (s *FirstAvailable) Schedule(count []int, occupied []bool, res *Result) {
	checkInput(s.conv, count, occupied, res)
	res.Reset()
	k := s.conv.K()
	e, f := s.conv.MinusReach(), s.conv.PlusReach()
	copy(s.remaining, count)

	// Output channel b is reachable from input wavelengths
	// [b−f, b+e] ∩ [0, k−1]: the inverse of the clamped conversion window.
	w := 0 // first candidate wavelength, monotone over the sweep
	for b := 0; b < k; b++ {
		if occupied != nil && occupied[b] {
			continue
		}
		lo := b - f
		if lo < 0 {
			lo = 0
		}
		hi := b + e
		if hi > k-1 {
			hi = k - 1
		}
		if w < lo {
			// Wavelengths below lo cannot reach b nor any later channel:
			// their END has passed.
			w = lo
		}
		for w <= hi && s.remaining[w] == 0 {
			w++
		}
		if w > hi {
			continue // no request can reach this channel
		}
		s.remaining[w]--
		res.ByOutput[b] = w
		res.Granted[w]++
		res.Size++
	}
	res.IndexChannels()
}

// ScheduleMasked implements Scheduler: converter-failed channels are
// pre-granted their own wavelength and degraded channels join the §V
// occupancy, after which the graph stays convex and the O(k) sweep stays
// exact (Theorem 1 on the reduced graph).
func (s *FirstAvailable) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	cnt, occ := s.mask.apply(count, occupied, mask)
	s.Schedule(cnt, occ, res)
	s.mask.finish(res)
}

var _ Scheduler = (*FirstAvailable)(nil)
