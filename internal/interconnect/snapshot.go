package interconnect

import "fmt"

// Snapshot is a consistent view of a switch's cumulative counters at a
// slot boundary. Port-local counters are merged into the run totals only
// at Finalize, and a grant credits its whole duration to the busy counters
// up front, so mid-run the exact value of every statistic is
// "run totals + Σ port locals − Σ unelapsed holds" — the same identity the
// live telemetry view uses (telemetry.go). Snapshot materializes that view
// without disturbing the counters, so it is valid before, during, and
// after the merge, and two engines fed identical arrivals and faults
// produce identical Snapshots at every slot boundary — the equivalence
// invariant wdmsoak checks on every resync point.
type Snapshot struct {
	Slots            int64
	Offered          int64
	Granted          int64
	InputBlocked     int64
	OutputDropped    int64
	Preempted        int64
	BusyChannelSlots int64
	FaultLostGrants  int64
	FaultKilled      int64
	PerInput         []int64 // grants per input fiber
	PerChannel       []int64 // busy slots per output wavelength channel
}

// Snapshot fills snap with the switch's current cumulative counters,
// reusing snap's slices. It is safe to call from any goroutine: it takes
// the slot lock, so a call that races RunSlot waits out the slot in
// flight and sees the boundary after it — never half a slot.
func (s *Switch) Snapshot(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotLocked(snap)
}

// snapshotLocked is Snapshot for callers already holding the slot lock.
func (s *Switch) snapshotLocked(snap *Snapshot) {
	n, k := s.cfg.N, s.k
	if cap(snap.PerInput) < n {
		snap.PerInput = make([]int64, n)
	}
	if cap(snap.PerChannel) < k {
		snap.PerChannel = make([]int64, k)
	}
	snap.PerInput = snap.PerInput[:n]
	snap.PerChannel = snap.PerChannel[:k]

	st := s.stats
	done := int64(st.Slots)
	snap.Slots = done
	snap.Offered = st.Offered.Value()
	snap.Granted = st.Granted.Value()
	snap.InputBlocked = st.InputBlocked.Value()
	snap.OutputDropped = st.OutputDropped.Value()
	snap.Preempted = st.Preempted.Value()
	snap.BusyChannelSlots = st.BusyChannelSlots.Value()
	copy(snap.PerInput, st.PerInputGranted)
	copy(snap.PerChannel, st.PerChannelBusy)
	snap.FaultLostGrants, snap.FaultKilled = 0, 0
	if st.Fault != nil {
		snap.FaultLostGrants = st.Fault.LostGrants.Value()
		snap.FaultKilled = st.Fault.KilledConnections.Value()
	}
	for _, p := range s.ports {
		snap.Offered += p.offered
		snap.Granted += p.granted
		snap.OutputDropped += p.outputDropped
		snap.Preempted += p.preempted
		snap.BusyChannelSlots += p.busyslots
		snap.FaultLostGrants += p.faultLost
		snap.FaultKilled += p.faultKilled
		for f, v := range p.perInputGranted {
			snap.PerInput[f] += v
		}
		for b, v := range p.busyPerChannel {
			snap.PerChannel[b] += v
		}
		// Holds still in flight were credited in full at grant time: take
		// the slots that have not happened yet back out of the view.
		if p.holdUntil > done {
			for b := range p.freeAt {
				if rem := p.unelapsed(b, done); rem > 0 {
					snap.PerChannel[b] -= rem
					snap.BusyChannelSlots -= rem
				}
			}
		}
	}
}

// Conserved checks the packet-accounting partition
// Offered = Granted + InputBlocked + OutputDropped, returning a
// description of the imbalance or "" when it holds.
func (sn *Snapshot) Conserved() string {
	if got := sn.Granted + sn.InputBlocked + sn.OutputDropped; got != sn.Offered {
		return fmt.Sprintf("offered %d != granted %d + input-blocked %d + output-dropped %d (= %d)",
			sn.Offered, sn.Granted, sn.InputBlocked, sn.OutputDropped, got)
	}
	var perInput int64
	for _, g := range sn.PerInput {
		perInput += g
	}
	if perInput != sn.Granted {
		return fmt.Sprintf("Σ per-input grants %d != granted %d", perInput, sn.Granted)
	}
	var perChannel int64
	for _, b := range sn.PerChannel {
		perChannel += b
	}
	if perChannel != sn.BusyChannelSlots {
		return fmt.Sprintf("Σ per-channel busy %d != busy channel-slots %d", perChannel, sn.BusyChannelSlots)
	}
	return ""
}

// Diff compares two snapshots field by field, returning a description of
// the first difference or "" when they are identical.
func (sn *Snapshot) Diff(other *Snapshot) string {
	type field struct {
		name string
		a, b int64
	}
	for _, f := range []field{
		{"slots", sn.Slots, other.Slots},
		{"offered", sn.Offered, other.Offered},
		{"granted", sn.Granted, other.Granted},
		{"input-blocked", sn.InputBlocked, other.InputBlocked},
		{"output-dropped", sn.OutputDropped, other.OutputDropped},
		{"preempted", sn.Preempted, other.Preempted},
		{"busy-channel-slots", sn.BusyChannelSlots, other.BusyChannelSlots},
		{"fault-lost-grants", sn.FaultLostGrants, other.FaultLostGrants},
		{"fault-killed", sn.FaultKilled, other.FaultKilled},
	} {
		if f.a != f.b {
			return fmt.Sprintf("%s: %d vs %d", f.name, f.a, f.b)
		}
	}
	if len(sn.PerInput) != len(other.PerInput) {
		return fmt.Sprintf("per-input length: %d vs %d", len(sn.PerInput), len(other.PerInput))
	}
	for f, g := range sn.PerInput {
		if g != other.PerInput[f] {
			return fmt.Sprintf("per-input[%d]: %d vs %d", f, g, other.PerInput[f])
		}
	}
	if len(sn.PerChannel) != len(other.PerChannel) {
		return fmt.Sprintf("per-channel length: %d vs %d", len(sn.PerChannel), len(other.PerChannel))
	}
	for b, c := range sn.PerChannel {
		if c != other.PerChannel[b] {
			return fmt.Sprintf("per-channel[%d]: %d vs %d", b, c, other.PerChannel[b])
		}
	}
	return ""
}

// SlotGrant is one switched connection of the most recent slot, as exposed
// by LastGrants for closed-loop drivers (bulk transfers, grant ledgers).
type SlotGrant struct {
	InputFiber  int
	Wavelength  int
	OutputFiber int
	Channel     int
	Duration    int
	Held        bool // disturb-mode re-placement of an existing connection
}

// LastGrants appends the connections switched in the most recent RunSlot
// call to dst and returns it. The view is valid until the next RunSlot;
// it allocates nothing when dst has capacity.
func (s *Switch) LastGrants(dst []SlotGrant) []SlotGrant {
	for o, grants := range s.results {
		for _, g := range grants {
			dst = append(dst, SlotGrant{
				InputFiber:  g.fiber,
				Wavelength:  g.wave,
				OutputFiber: o,
				Channel:     g.channel,
				Duration:    g.duration,
				Held:        g.held,
			})
		}
	}
	return dst
}
