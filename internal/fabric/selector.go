package fabric

import (
	"fmt"

	"wdmsched/internal/traffic"
)

// Selector breaks ties among same-wavelength requests. The matching
// algorithms treat requests on one wavelength as interchangeable; when the
// scheduler grants g of the c ≥ g requests on a wavelength, the selector
// decides which input fibers win. The paper (Section III) prescribes "a
// random selecting or a round-robin scheduling procedure … to ensure
// fairness", citing the PIM and iSLIP line of work.
type Selector interface {
	// Pick appends to dst the winning input fibers: grants entries chosen
	// from requesters (ascending fiber order). requesters must not be
	// empty when grants > 0 and grants ≤ len(requesters).
	Pick(w int, requesters []int, grants int, dst []int) []int
	// Name identifies the policy in tables.
	Name() string
}

func checkPick(w int, requesters []int, grants int) {
	if grants < 0 || grants > len(requesters) {
		panic(fmt.Sprintf("fabric: %d grants for %d requesters on λ%d", grants, len(requesters), w))
	}
}

// RoundRobin serves each wavelength's requesters starting after the last
// fiber served on that wavelength, the iSLIP-style pointer update. One
// instance belongs to one output fiber.
type RoundRobin struct {
	next []int // per wavelength: fiber id to start searching from
}

// NewRoundRobin builds a round-robin selector for k wavelengths.
func NewRoundRobin(k int) *RoundRobin {
	return &RoundRobin{next: make([]int, k)}
}

// Name implements Selector.
func (s *RoundRobin) Name() string { return "round-robin" }

// Pick implements Selector: winners are the first `grants` requesters at or
// after the pointer in cyclic fiber order; the pointer then advances to one
// past the last winner.
func (s *RoundRobin) Pick(w int, requesters []int, grants int, dst []int) []int {
	checkPick(w, requesters, grants)
	if grants == 0 {
		return dst
	}
	// Find the first requester ≥ pointer (cyclically).
	start := 0
	for i, f := range requesters {
		if f >= s.next[w] {
			start = i
			break
		}
	}
	i, last := start, 0
	for range grants {
		last = requesters[i]
		dst = append(dst, last)
		if i++; i == len(requesters) {
			i = 0
		}
	}
	s.next[w] = last + 1
	return dst
}

// Random picks a uniform subset of requesters each slot (PIM-style).
type Random struct {
	rng     *traffic.RNG
	scratch []int
}

// NewRandom builds a random selector with its own deterministic stream.
func NewRandom(seed uint64) *Random {
	return &Random{rng: traffic.NewRNG(seed)}
}

// Name implements Selector.
func (s *Random) Name() string { return "random" }

// Pick implements Selector via a partial Fisher–Yates shuffle.
func (s *Random) Pick(w int, requesters []int, grants int, dst []int) []int {
	checkPick(w, requesters, grants)
	if grants == 0 {
		return dst
	}
	s.scratch = append(s.scratch[:0], requesters...)
	for g := 0; g < grants; g++ {
		i := g + s.rng.Intn(len(s.scratch)-g)
		s.scratch[g], s.scratch[i] = s.scratch[i], s.scratch[g]
		dst = append(dst, s.scratch[g])
	}
	return dst
}

// FixedPriority always serves the lowest-numbered requesting fibers — the
// unfair baseline the paper's cited fairness mechanisms (round-robin,
// random) exist to avoid. It is included as the negative control in the
// fairness ablation (experiment S7): under contention it starves
// high-numbered input fibers.
type FixedPriority struct{}

// NewFixedPriority builds the unfair baseline selector.
func NewFixedPriority() *FixedPriority { return &FixedPriority{} }

// Name implements Selector.
func (*FixedPriority) Name() string { return "fixed-priority" }

// Pick implements Selector: the first `grants` requesters in fiber order
// win, every slot.
func (*FixedPriority) Pick(w int, requesters []int, grants int, dst []int) []int {
	checkPick(w, requesters, grants)
	return append(dst, requesters[:grants]...)
}

var (
	_ Selector = (*RoundRobin)(nil)
	_ Selector = (*Random)(nil)
	_ Selector = (*FixedPriority)(nil)
)
