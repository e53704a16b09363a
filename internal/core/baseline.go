package core

import (
	"wdmsched/internal/bipartite"
	"wdmsched/internal/wavelength"
)

// Baseline schedules by expanding the request graph and running
// Hopcroft–Karp ([1] in the paper) — the general bipartite matching
// algorithm the paper's specialized algorithms are compared against. Naive
// use over a whole interconnect costs O(N^(3/2) k^(3/2) d); even per output
// fiber it builds the explicit graph each slot and allocates, unlike the
// O(k)/O(dk) schedulers. It exists as the optimality oracle in tests and
// the comparator in benchmarks.
type Baseline struct {
	conv wavelength.Conversion
}

// NewBaseline wraps Hopcroft–Karp as a Scheduler for any conversion model.
func NewBaseline(conv wavelength.Conversion) *Baseline {
	return &Baseline{conv: conv}
}

// Name implements Scheduler.
func (s *Baseline) Name() string { return "hopcroft-karp" }

// Conversion implements Scheduler.
func (s *Baseline) Conversion() wavelength.Conversion { return s.conv }

// Schedule implements Scheduler.
func (s *Baseline) Schedule(count []int, occupied []bool, res *Result) {
	s.ScheduleMasked(count, occupied, nil, res)
}

// ScheduleMasked implements Scheduler by building the degraded request
// graph explicitly — each request's adjacency interval is narrowed edge by
// edge (dark channels removed, converter-failed channels kept only for
// their own wavelength) — and running Hopcroft–Karp on it. Unlike the
// specialized schedulers it does not go through the pre-grant reduction,
// which makes it the independent optimality oracle for the masked paths.
func (s *Baseline) ScheduleMasked(count []int, occupied []bool, mask ChannelMask, res *Result) {
	checkInput(s.conv, count, occupied, res)
	checkMask(s.conv, mask)
	res.Reset()
	k := s.conv.K()
	// Expand the request vector into left vertices, tracking each left
	// vertex's wavelength.
	n := TotalRequests(count)
	waveOf := make([]int, 0, n)
	for w := 0; w < k; w++ {
		for c := 0; c < count[w]; c++ {
			waveOf = append(waveOf, w)
		}
	}
	g := bipartite.NewGraph(n, k)
	for a, w := range waveOf {
		s.conv.Adjacency(wavelength.Wavelength(w)).Each(func(b int) {
			if occupied != nil && occupied[b] {
				return
			}
			if mask != nil && (mask[b] == Dark || (mask[b] == ConverterFailed && b != w)) {
				return
			}
			g.AddEdge(a, b)
		})
	}
	m := bipartite.HopcroftKarp(g)
	for b, a := range m.LeftOf {
		if a == bipartite.Unmatched {
			continue
		}
		w := waveOf[a]
		res.ByOutput[b] = w
		res.Granted[w]++
		res.Size++
	}
	res.IndexChannels()
}

var _ Scheduler = (*Baseline)(nil)
