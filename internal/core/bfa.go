package core

import (
	"fmt"

	"wdmsched/internal/wavelength"
)

// Break and First Available (paper Table 3) and the Section IV-C single
// break approximation, for circular symmetrical conversion.
//
// The request graph under circular conversion is not convex: adjacency sets
// wrap around the wavelength ring. The paper's remedy is to "break" the
// graph at an edge a_i→b_u — removing both endpoints and every edge
// crossing a_i→b_u (Definitions 1, 2) — after which the reduced graph,
// reordered to start at a_{i+1} and b_{u+1}, is convex (Lemma 2) and First
// Available applies. If the breaking edge lies in some no-crossing-edge
// maximum matching, the reduced maximum matching plus the breaking edge is
// a maximum matching of the whole graph (Lemma 3), and at least one of the
// d edges of any left vertex qualifies (Lemma 4). Trying all d candidate
// breaking edges therefore yields an exact O(dk) scheduler.
//
// This implementation works on per-wavelength request counts. The chosen
// a_i is the first request of the lowest wavelength that has requests and
// at least one unoccupied channel in its conversion window; with that
// choice the shifted left order is simply ring order starting at W(i), and
// every same-wavelength sibling of a_i is on its plus (j > i) side. The
// Section IV-A closed-form adjacency intervals of the reduced graph are
// computed directly — the graph is never materialized — so one reduced
// First Available sweep costs O(k) and the whole slot O(dk), independent of
// the interconnect size N, exactly as Theorem 2 claims.

// ringMod returns x mod k in [0, k).
func ringMod(x, k int) int {
	m := x % k
	if m < 0 {
		m += k
	}
	return m
}

// ringRep returns the smallest integer ≥ lo congruent to x mod k.
func ringRep(x, lo, k int) int {
	return lo + ringMod(x-lo, k)
}

// breaker holds the scratch shared by the exact and approximate breaking
// schedulers.
type breaker struct {
	conv wavelength.Conversion
	cur  *Result
	mask masker
	// Bucket arrays for the reduced convex graph, in shifted left order.
	// bBegin/bEnd are reduced right positions; bCount the number of
	// requests in the bucket; bWave the bucket's input wavelength.
	bBegin, bEnd, bCount, bWave []int
}

// requireCircular rejects the conversion models the breaking argument of
// Section IV does not apply to.
func requireCircular(conv wavelength.Conversion) error {
	if conv.Kind() != wavelength.Circular {
		return fmt.Errorf("core: breaking schedulers require circular conversion, have %v", conv.Kind())
	}
	return nil
}

func newBreaker(conv wavelength.Conversion) (*breaker, error) {
	if err := requireCircular(conv); err != nil {
		return nil, err
	}
	k := conv.K()
	return &breaker{
		conv:   conv,
		cur:    NewResult(k),
		mask:   newMasker(k),
		bBegin: make([]int, 0, k+1),
		bEnd:   make([]int, 0, k+1),
		bCount: make([]int, 0, k+1),
		bWave:  make([]int, 0, k+1),
	}, nil
}

// firstMatchable returns the lowest wavelength with pending requests and at
// least one available channel in its conversion window, or −1 if every
// pending request is unmatchable. The window walk is open-coded ring
// arithmetic (the breaker is circular by construction) rather than an
// Interval.Each closure: this runs per slot on the scheduling hot path,
// which must stay allocation-free.
func (br *breaker) firstMatchable(count []int, occupied []bool) int {
	k := br.conv.K()
	e, d := br.conv.MinusReach(), br.conv.Degree()
	if d > k {
		d = k
	}
	for w := 0; w < k; w++ {
		if count[w] == 0 {
			continue
		}
		if occupied == nil {
			return w
		}
		b := ringMod(w-e, k)
		for i := 0; i < d; i++ {
			if !occupied[b] {
				return w
			}
			b++
			if b == k {
				b = 0
			}
		}
	}
	return -1
}

// scheduleBreakAt breaks at edge (first request of w0) → b_u, runs First
// Available on the reduced graph, and writes the combined assignment
// (breaking edge included) into br.cur. u must be an available channel in
// w0's window.
func (br *breaker) scheduleBreakAt(count []int, occupied []bool, w0, u int) {
	conv := br.conv
	k := conv.K()
	e, f := conv.MinusReach(), conv.PlusReach()
	ur := ringRep(u, w0-e, k)

	// Build the wavelength buckets of the reduced graph in shifted left
	// order: the remaining requests on w0 first (all on the j > i side of
	// a_i), then the other wavelengths in ring order from w0+1. Each
	// bucket's reduced adjacency interval comes from the Section IV-A
	// closed forms; empty intervals are dropped.
	br.bBegin = br.bBegin[:0]
	br.bEnd = br.bEnd[:0]
	br.bCount = br.bCount[:0]
	br.bWave = br.bWave[:0]
	push := func(w, c, lo, hi int) {
		if hi < lo || c == 0 {
			return
		}
		br.bBegin = append(br.bBegin, ringMod(lo-u-1, k))
		br.bEnd = append(br.bEnd, ringMod(hi-u-1, k))
		br.bCount = append(br.bCount, c)
		br.bWave = append(br.bWave, w)
	}
	push(w0, count[w0]-1, ur+1, w0+f)
	for off := 1; off < k; off++ {
		w := (w0 + off) % k
		if count[w] == 0 {
			continue
		}
		switch {
		case wavelength.InRing(w, ur-f, w0-1, k):
			wr := ringRep(w, ur-f, k)
			push(w, count[w], wr-e, ur-1)
		case wavelength.InRing(w, w0+1, ur+e, k):
			wr := ringRep(w, w0+1, k)
			push(w, count[w], ur+1, wr+f)
		default:
			push(w, count[w], w-e, w+f)
		}
	}

	// First Available over the reduced right order b_{u+1}, …, b_{u−1}.
	// Bucket BEGIN/END values are monotone (Lemma 2), so a sliding window
	// [head, tail) of open buckets suffices: total cost O(k).
	cur := br.cur
	cur.Reset()
	head, tail := 0, 0
	n := len(br.bBegin)
	for p := 0; p < k-1; p++ {
		b := (u + 1 + p) % k
		if occupied != nil && occupied[b] {
			continue
		}
		for tail < n && br.bBegin[tail] <= p {
			tail++
		}
		for head < tail && (br.bCount[head] == 0 || br.bEnd[head] < p) {
			head++
		}
		if head == tail {
			continue
		}
		w := br.bWave[head]
		br.bCount[head]--
		cur.ByOutput[b] = w
		cur.Granted[w]++
		cur.Size++
	}

	// Append the breaking edge a_i→b_u.
	cur.ByOutput[u] = w0
	cur.Granted[w0]++
	cur.Size++
	cur.BreakChannel = u
}

// BreakFirstAvailable is the exact O(dk) scheduler of Table 3 for circular
// symmetrical conversion: try every available breaking edge incident to
// one left vertex and keep the largest matching.
type BreakFirstAvailable struct {
	br   *breaker
	best *Result
}

// NewBreakFirstAvailable builds the scheduler; conv must be circular.
func NewBreakFirstAvailable(conv wavelength.Conversion) (*BreakFirstAvailable, error) {
	br, err := newBreaker(conv)
	if err != nil {
		return nil, err
	}
	return &BreakFirstAvailable{br: br, best: NewResult(conv.K())}, nil
}

// Name implements Scheduler.
func (s *BreakFirstAvailable) Name() string { return "break-first-available" }

// Conversion implements Scheduler.
func (s *BreakFirstAvailable) Conversion() wavelength.Conversion { return s.br.conv }

// Schedule implements Scheduler.
func (s *BreakFirstAvailable) Schedule(count []int, occupied []bool, res *Result) {
	conv := s.br.conv
	checkInput(conv, count, occupied, res)
	res.Reset()
	if conv.IsFullRange() {
		// d = k: every request reaches every channel; scheduling is the
		// trivial full range case (Section I).
		fullRangeInto(conv, count, occupied, res)
		return
	}
	w0 := s.br.firstMatchable(count, occupied)
	if w0 < 0 {
		return
	}
	// Upper bound on any matching: min(requests, available channels);
	// stop trying breaking edges once reached.
	avail := conv.K()
	if occupied != nil {
		avail = 0
		for _, o := range occupied {
			if !o {
				avail++
			}
		}
	}
	bound := TotalRequests(count)
	if avail < bound {
		bound = avail
	}
	// Candidate breaking edges in window order from the minus end
	// (open-coded ring walk — no closure, the hot path stays
	// allocation-free).
	first := true
	e, d := conv.MinusReach(), conv.Degree()
	u := ringMod(w0-e, conv.K())
	for i := 0; i < d; i++ {
		if occupied == nil || !occupied[u] {
			s.br.scheduleBreakAt(count, occupied, w0, u)
			if first || s.br.cur.Size > s.best.Size {
				s.best.CopyFrom(s.br.cur)
				first = false
			}
			if s.best.Size >= bound {
				break
			}
		}
		u++
		if u == conv.K() {
			u = 0
		}
	}
	res.CopyFrom(s.best)
	res.IndexChannels()
}

// ScheduleMasked implements Scheduler: the degraded instance reduces to a
// §V occupancy instance over the healthy channels (converter-failed
// channels pre-granted straight through), on which the breaking argument
// of Theorem 2 applies unchanged.
func (s *BreakFirstAvailable) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	cnt, occ := s.br.mask.apply(count, occupied, mask)
	s.Schedule(cnt, occ, res)
	s.br.mask.finish(res)
}

var _ Scheduler = (*BreakFirstAvailable)(nil)

// DeltaBreak is the Section IV-C approximation: break only at the δ-th
// edge of the chosen left vertex (counting 1-based from the minus end of
// its conversion window) and run First Available once, O(k) total. By
// Theorem 3 the result is within max{δ−1, d−δ} of a maximum matching; the
// "shortest edge" choice δ = (d+1)/2 minimizes the bound to (d−1)/2
// (Corollary 1).
//
// When the δ-th channel is occupied, the scheduler breaks at the available
// window channel closest to position δ instead (the paper's model has no
// occupancy; this keeps the spirit of the shortest-edge choice).
type DeltaBreak struct {
	br    *breaker
	delta int
}

// NewDeltaBreak builds the approximation with breaking position delta in
// [1, d]; conv must be circular.
func NewDeltaBreak(conv wavelength.Conversion, delta int) (*DeltaBreak, error) {
	br, err := newBreaker(conv)
	if err != nil {
		return nil, err
	}
	if delta < 1 || delta > conv.Degree() {
		return nil, fmt.Errorf("core: delta %d outside [1, d=%d]", delta, conv.Degree())
	}
	return &DeltaBreak{br: br, delta: delta}, nil
}

// NewShortestEdge builds the Corollary 1 approximation, δ = (d+1)/2.
func NewShortestEdge(conv wavelength.Conversion) (*DeltaBreak, error) {
	return NewDeltaBreak(conv, (conv.Degree()+1)/2)
}

// Name implements Scheduler.
func (s *DeltaBreak) Name() string { return fmt.Sprintf("delta-break(%d)", s.delta) }

// Delta reports the breaking position δ.
func (s *DeltaBreak) Delta() int { return s.delta }

// Conversion implements Scheduler.
func (s *DeltaBreak) Conversion() wavelength.Conversion { return s.br.conv }

// Schedule implements Scheduler.
func (s *DeltaBreak) Schedule(count []int, occupied []bool, res *Result) {
	conv := s.br.conv
	checkInput(conv, count, occupied, res)
	res.Reset()
	if conv.IsFullRange() {
		fullRangeInto(conv, count, occupied, res)
		return
	}
	w0 := s.br.firstMatchable(count, occupied)
	if w0 < 0 {
		return
	}
	k := conv.K()
	e := conv.MinusReach()
	// δ-th channel of w0's window, counted from the minus end.
	u := ringMod(w0-e+s.delta-1, k)
	if occupied != nil && occupied[u] {
		u = nearestAvailable(conv, occupied, w0, s.delta)
	}
	s.br.scheduleBreakAt(count, occupied, w0, u)
	res.CopyFrom(s.br.cur)
	res.IndexChannels()
}

// ScheduleMasked implements Scheduler; the Theorem 3 gap bound holds
// against the optimum of the degraded graph.
func (s *DeltaBreak) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	cnt, occ := s.br.mask.apply(count, occupied, mask)
	s.Schedule(cnt, occ, res)
	s.br.mask.finish(res)
}

// MultiBreak generalizes the Section IV-C trade-off: it tries a chosen
// subset of the d breaking positions and keeps the best reduced matching,
// interpolating between DeltaBreak (one position, O(k)) and the exact
// BreakFirstAvailable (all d positions, O(dk)). By Theorem 3 applied to
// each tried position, the gap to optimal is at most
// min over tried δ of max{δ−1, d−δ}.
type MultiBreak struct {
	br     *breaker
	deltas []int
	best   *Result
}

// NewMultiBreak builds the scheduler with the given breaking positions
// (1-based window positions, distinct, each in [1, d]); conv must be
// circular.
func NewMultiBreak(conv wavelength.Conversion, deltas []int) (*MultiBreak, error) {
	br, err := newBreaker(conv)
	if err != nil {
		return nil, err
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("core: MultiBreak needs at least one breaking position")
	}
	seen := make(map[int]bool, len(deltas))
	for _, delta := range deltas {
		if delta < 1 || delta > conv.Degree() {
			return nil, fmt.Errorf("core: delta %d outside [1, d=%d]", delta, conv.Degree())
		}
		if seen[delta] {
			return nil, fmt.Errorf("core: duplicate delta %d", delta)
		}
		seen[delta] = true
	}
	return &MultiBreak{
		br:     br,
		deltas: append([]int(nil), deltas...),
		best:   NewResult(conv.K()),
	}, nil
}

// Name implements Scheduler.
func (s *MultiBreak) Name() string { return fmt.Sprintf("multi-break(%d)", len(s.deltas)) }

// Bound returns the Theorem 3 guarantee: the smallest max{δ−1, d−δ} over
// the tried positions.
func (s *MultiBreak) Bound() int {
	d := s.br.conv.Degree()
	best := d
	for _, delta := range s.deltas {
		b := delta - 1
		if d-delta > b {
			b = d - delta
		}
		if b < best {
			best = b
		}
	}
	return best
}

// Conversion implements Scheduler.
func (s *MultiBreak) Conversion() wavelength.Conversion { return s.br.conv }

// Schedule implements Scheduler. Breaking positions whose channel is
// occupied are skipped; if every chosen position is occupied, the
// available window channel nearest the first position is used so the
// matchable vertex is never wasted.
func (s *MultiBreak) Schedule(count []int, occupied []bool, res *Result) {
	conv := s.br.conv
	checkInput(conv, count, occupied, res)
	res.Reset()
	if conv.IsFullRange() {
		fullRangeInto(conv, count, occupied, res)
		return
	}
	w0 := s.br.firstMatchable(count, occupied)
	if w0 < 0 {
		return
	}
	k := conv.K()
	e := conv.MinusReach()
	first := true
	for _, delta := range s.deltas {
		u := ringMod(w0-e+delta-1, k)
		if occupied != nil && occupied[u] {
			continue
		}
		s.br.scheduleBreakAt(count, occupied, w0, u)
		if first || s.br.cur.Size > s.best.Size {
			s.best.CopyFrom(s.br.cur)
			first = false
		}
	}
	if first {
		// All chosen positions occupied; firstMatchable guarantees some
		// window channel is free.
		u := nearestAvailable(conv, occupied, w0, s.deltas[0])
		s.br.scheduleBreakAt(count, occupied, w0, u)
		s.best.CopyFrom(s.br.cur)
	}
	res.CopyFrom(s.best)
	res.IndexChannels()
}

// ScheduleMasked implements Scheduler; the Bound guarantee holds against
// the optimum of the degraded graph.
func (s *MultiBreak) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	cnt, occ := s.br.mask.apply(count, occupied, mask)
	s.Schedule(cnt, occ, res)
	s.br.mask.finish(res)
}

var _ Scheduler = (*MultiBreak)(nil)

// nearestAvailable returns the available channel in w0's window whose
// window position is closest to delta, preferring the minus side on ties.
// The caller guarantees at least one window channel is available.
func nearestAvailable(conv wavelength.Conversion, occupied []bool, w0, delta int) int {
	k := conv.K()
	e, d := conv.MinusReach(), conv.Degree()
	if d > k {
		d = k
	}
	bestU, bestDist := -1, int(^uint(0)>>1)
	b := ringMod(w0-e, k)
	for pos := 1; pos <= d; pos++ {
		if !occupied[b] {
			dist := pos - delta
			if dist < 0 {
				dist = -dist
			}
			if dist < bestDist {
				bestDist, bestU = dist, b
			}
		}
		b++
		if b == k {
			b = 0
		}
	}
	return bestU
}

var _ Scheduler = (*DeltaBreak)(nil)
