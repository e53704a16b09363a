package core

import (
	"fmt"

	"wdmsched/internal/wavelength"
)

// Per-channel fault state and masked scheduling.
//
// The paper assumes every output channel carries a healthy limited-range
// converter. Real hardware fails in two characteristic ways:
//
//   - A failed converter leaves the channel's laser path intact but removes
//     its ability to shift wavelengths: output channel b can then carry only
//     requests that arrived on exactly λb (effective conversion degree 1 on
//     that channel).
//   - A dark channel (dead laser, cut drop fiber, darkened port) carries
//     nothing at all.
//
// Both degradations reduce to the machinery the paper already has. A dark
// channel is exactly a §V occupied channel: it drops off the right side of
// the request graph. A converter-failed channel b keeps a single edge,
// λb→b, and an exchange argument shows greedily pre-granting that edge is
// optimal: in any maximum matching of the degraded graph, either some λb
// request is unmatched while b is free (then adding λb→b enlarges the
// matching — contradiction), or every λb request is matched; moving one of
// them from its current channel onto b preserves the matching size, and
// the channel it vacates is necessarily healthy (a converter-failed channel
// other than b cannot host a λb request), so previously fixed pre-grants
// are never disturbed. After pre-granting, the residual problem is plain
// §V occupancy over the healthy channels, where FirstAvailable and
// Break-and-First-Available are exact (Theorems 1–2 on the reduced convex
// graph). ScheduleMasked therefore stays exact for every exact scheduler
// and keeps the Theorem 3 bound for the single-break approximations.

// ChannelState is the fault state of one output channel.
type ChannelState uint8

const (
	// Healthy is a fully working channel: converter and laser path up.
	Healthy ChannelState = iota
	// ConverterFailed marks a channel whose wavelength converter is down:
	// the channel can carry only requests arriving on its own wavelength
	// (λb for channel b), i.e. it degrades to fixed-wavelength operation.
	ConverterFailed
	// Dark marks a channel that cannot carry anything: it is removed from
	// the request graph entirely, like a §V occupied channel.
	Dark
)

// String returns the state name used in tables and flags.
func (s ChannelState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case ConverterFailed:
		return "converter-failed"
	case Dark:
		return "dark"
	default:
		return fmt.Sprintf("ChannelState(%d)", uint8(s))
	}
}

// ChannelMask is the per-channel fault state of one output fiber, indexed
// by output channel. A nil mask means every channel is healthy.
type ChannelMask []ChannelState

// AllHealthy reports whether the mask degrades nothing (nil counts as
// all-healthy).
func (m ChannelMask) AllHealthy() bool {
	for _, s := range m {
		if s != Healthy {
			return false
		}
	}
	return true
}

// Reset marks every channel healthy.
func (m ChannelMask) Reset() {
	for b := range m {
		m[b] = Healthy
	}
}

// checkMask panics on a malformed mask: wrong length or unknown state
// values are caller bugs, like the shape errors checkInput catches.
func checkMask(conv wavelength.Conversion, mask ChannelMask) {
	if mask == nil {
		return
	}
	if len(mask) != conv.K() {
		panic(fmt.Sprintf("core: mask length %d != k %d", len(mask), conv.K()))
	}
	for b, s := range mask {
		if s > Dark {
			panic(fmt.Sprintf("core: invalid channel state %d at channel %d", s, b))
		}
	}
}

// masker is the shared scratch behind every scheduler's ScheduleMasked: it
// projects a degraded instance onto the maskless contract by pre-granting
// converter-failed channels (exact, see the package comment above) and
// folding every non-healthy channel into the §V occupancy overlay. Its
// buffers are fault-only scratch, built on the first mask that is not
// all-healthy: a scheduler that never sees a fault never allocates them.
type masker struct {
	k        int
	residual []int
	occ      []bool
	pre      []int
}

func newMasker(k int) masker { return masker{k: k} }

// apply returns the (count, occupied) pair the inner scheduler should run
// on. With a nil or all-healthy mask the inputs pass through untouched, so
// the masked path is bit-for-bit identical to the maskless one; otherwise
// converter-failed channels with a pending same-wavelength request are
// recorded as pre-grants (consumed from the residual counts) and every
// degraded channel joins the occupancy overlay.
func (m *masker) apply(count []int, occupied []bool, mask ChannelMask) ([]int, []bool) {
	m.pre = m.pre[:0]
	if mask.AllHealthy() {
		return count, occupied
	}
	k := m.k
	if len(mask) != k {
		panic(fmt.Sprintf("core: mask length %d != k %d", len(mask), k))
	}
	if len(count) != k {
		panic(fmt.Sprintf("core: count length %d != k %d", len(count), k))
	}
	if occupied != nil && len(occupied) != k {
		panic(fmt.Sprintf("core: occupied length %d != k %d", len(occupied), k))
	}
	if m.residual == nil {
		m.residual = make([]int, k)
		m.occ = make([]bool, k)
		m.pre = make([]int, 0, k)
	}
	copy(m.residual, count)
	for b, st := range mask {
		held := occupied != nil && occupied[b]
		m.occ[b] = held || st != Healthy
		if st == ConverterFailed && !held && m.residual[b] > 0 {
			m.residual[b]--
			m.pre = append(m.pre, b)
		}
	}
	return m.residual, m.occ
}

// finish appends the pre-granted straight-through connections (λb→b on
// each served converter-failed channel) to the inner scheduler's result
// and, when there were any, rebuilds its channel index.
func (m *masker) finish(res *Result) {
	if len(m.pre) == 0 {
		return
	}
	for _, b := range m.pre {
		res.ByOutput[b] = b
		res.Granted[b]++
		res.Size++
	}
	res.IndexChannels()
}

// ValidateMasked checks that res is a feasible assignment for the request
// vector, occupancy and fault mask: Validate's feasibility rules plus no
// grant on a dark channel and only straight-through (λb→b) grants on
// converter-failed channels.
func ValidateMasked(conv wavelength.Conversion, count []int, occupied []bool, mask ChannelMask, res *Result) error {
	if err := Validate(conv, count, occupied, res); err != nil {
		return err
	}
	if mask == nil {
		return nil
	}
	if len(mask) != conv.K() {
		return fmt.Errorf("core: mask length %d != k %d", len(mask), conv.K())
	}
	for b, w := range res.ByOutput {
		if w == Unassigned {
			continue
		}
		switch mask[b] {
		case Dark:
			return fmt.Errorf("core: dark channel %d assigned wavelength %d", b, w)
		case ConverterFailed:
			if w != b {
				return fmt.Errorf("core: converter-failed channel %d assigned wavelength %d (needs conversion)", b, w)
			}
		}
	}
	return nil
}
