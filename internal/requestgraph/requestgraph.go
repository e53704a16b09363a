// Package requestgraph implements the request graph of Zhang & Yang
// (IPDPS 2003), Section II-B: the bipartite graph between the connection
// requests destined to one output fiber (left side, set A) and that fiber's
// k output wavelength channels (right side, set B). An edge a→b exists when
// the request's arrival wavelength can be converted to output wavelength b.
//
// The package also implements the machinery of Section IV-A for circular
// symmetrical conversion: the crossing-edge predicate (Definition 1),
// breaking the graph at an edge (Definition 2) with the reduced graph's
// convex reordering (Lemma 2), and the crossing-edge elimination rewrite
// used in the proof of Lemma 1.
//
// Left side vertices are ordered by arrival wavelength index (requests on
// the same wavelength in submission order), matching the paper's ordering
// convention; right side vertices are in wavelength order.
package requestgraph

import (
	"fmt"
	"sort"

	"wdmsched/internal/bipartite"
	"wdmsched/internal/core"
	"wdmsched/internal/fabric"
	"wdmsched/internal/wavelength"
)

// Request is one connection request destined to the output fiber under
// consideration. InputFiber and InputChannel identify where it arrived (used
// by the fabric and fairness layers; the matching itself only reads W).
type Request struct {
	W            wavelength.Wavelength // arrival wavelength
	InputFiber   int                   // arriving input fiber, informational
	InputChannel int                   // channel id on the input fiber, informational
	ID           int64                 // caller-assigned identifier
}

// Graph is a request graph for one output fiber in one time slot.
type Graph struct {
	conv     wavelength.Conversion
	reqs     []Request        // sorted by wavelength (stable)
	occupied []bool           // occupied[b]: output channel b unavailable (Section V)
	states   core.ChannelMask // per-channel fault state (fault injection)

	// Packed mirrors of the right-side removals, kept in sync by the
	// setters: occBits has a bit per §V-occupied channel, darkBits per dark
	// channel. UsableChannels folds them over the full channel set with
	// word-parallel AND NOT, the packed form of the occupancy overlay the
	// schedulers' masker computes per slot.
	occBits  *fabric.BitVector
	darkBits *fabric.BitVector
}

// New builds a request graph. Requests are stably sorted by arrival
// wavelength, preserving submission order within a wavelength, which is the
// left-side vertex order A of the paper. Requests on invalid wavelengths
// are rejected.
func New(conv wavelength.Conversion, reqs []Request) (*Graph, error) {
	for i, r := range reqs {
		if !conv.Valid(r.W) {
			return nil, fmt.Errorf("requestgraph: request %d on invalid wavelength %d (k=%d)", i, r.W, conv.K())
		}
	}
	sorted := append([]Request(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].W < sorted[j].W })
	return &Graph{
		conv:     conv,
		reqs:     sorted,
		occupied: make([]bool, conv.K()),
		states:   make(core.ChannelMask, conv.K()),
		occBits:  fabric.NewBitVector(conv.K()),
		darkBits: fabric.NewBitVector(conv.K()),
	}, nil
}

// FromVector builds a request graph from a request vector (paper §II-B):
// vec[i] is the number of requests arrived on wavelength λi. Requests get
// sequential IDs in wavelength order.
func FromVector(conv wavelength.Conversion, vec []int) (*Graph, error) {
	if len(vec) != conv.K() {
		return nil, fmt.Errorf("requestgraph: vector length %d != k %d", len(vec), conv.K())
	}
	var reqs []Request
	id := int64(0)
	for w, n := range vec {
		if n < 0 {
			return nil, fmt.Errorf("requestgraph: negative count %d at wavelength %d", n, w)
		}
		for j := 0; j < n; j++ {
			reqs = append(reqs, Request{W: wavelength.Wavelength(w), ID: id})
			id++
		}
	}
	return New(conv, reqs)
}

// MustFromVector is FromVector panicking on error, for tests.
func MustFromVector(conv wavelength.Conversion, vec []int) *Graph {
	g, err := FromVector(conv, vec)
	if err != nil {
		panic(err)
	}
	return g
}

// Conversion returns the conversion model.
func (g *Graph) Conversion() wavelength.Conversion { return g.conv }

// NumRequests reports |A|.
func (g *Graph) NumRequests() int { return len(g.reqs) }

// K reports the number of right-side vertices (wavelengths per fiber).
func (g *Graph) K() int { return g.conv.K() }

// Request returns the i-th left-side vertex.
func (g *Graph) Request(i int) Request { return g.reqs[i] }

// W returns the wavelength index of left vertex i, the paper's W(i).
func (g *Graph) W(i int) int { return int(g.reqs[i].W) }

// Vector returns the request vector: count of requests per wavelength.
func (g *Graph) Vector() []int {
	vec := make([]int, g.conv.K())
	for _, r := range g.reqs {
		vec[r.W]++
	}
	return vec
}

// SetOccupied marks output channel b occupied (Section V: held by a
// connection from an earlier slot). Occupied channels are removed from the
// right side: no edges reach them.
func (g *Graph) SetOccupied(b int, occ bool) {
	g.occupied[b] = occ
	if occ {
		g.occBits.Set(b)
	} else {
		g.occBits.Clear(b)
	}
}

// Occupied reports whether output channel b is occupied.
func (g *Graph) Occupied(b int) bool { return g.occupied[b] }

// SetChannelState sets output channel b's fault state (fault injection):
// a Dark channel is removed from the right side like an occupied one, and
// a ConverterFailed channel keeps only the edge from its own wavelength.
func (g *Graph) SetChannelState(b int, st core.ChannelState) {
	g.states[b] = st
	if st == core.Dark {
		g.darkBits.Set(b)
	} else {
		g.darkBits.Clear(b)
	}
}

// ChannelState reports output channel b's fault state.
func (g *Graph) ChannelState(b int) core.ChannelState { return g.states[b] }

// SetMask applies a whole channel-state mask (nil resets to all healthy).
func (g *Graph) SetMask(mask core.ChannelMask) {
	if mask == nil {
		for b := range g.states {
			g.states[b] = core.Healthy
		}
		g.darkBits.Reset()
		return
	}
	if len(mask) != len(g.states) {
		panic(fmt.Sprintf("requestgraph: mask length %d != k %d", len(mask), len(g.states)))
	}
	copy(g.states, mask)
	g.darkBits.Reset()
	for b, st := range g.states {
		if st == core.Dark {
			g.darkBits.Set(b)
		}
	}
}

// usable reports whether channel b can carry wavelength w under the
// occupancy and fault state (conversion feasibility aside).
func (g *Graph) usable(w, b int) bool {
	if g.occupied[b] || g.states[b] == core.Dark {
		return false
	}
	return g.states[b] != core.ConverterFailed || b == w
}

// OccupiedMask returns a copy of the per-channel occupancy.
func (g *Graph) OccupiedMask() []bool { return append([]bool(nil), g.occupied...) }

// NumAvailable reports the number of unoccupied output channels
// (popcount over the packed occupancy).
func (g *Graph) NumAvailable() int {
	return g.conv.K() - g.occBits.Count()
}

// UsableChannels writes the packed set of channels still on the graph's
// right side — neither §V-occupied nor dark — into dst (length k): the
// full channel set AND NOT occupied AND NOT dark, three word-parallel
// passes. Converter-failed channels remain set; they still carry their
// own wavelength.
func (g *Graph) UsableChannels(dst *fabric.BitVector) {
	dst.Fill()
	dst.AndNot(g.occBits)
	dst.AndNot(g.darkBits)
}

// HasEdge reports whether left vertex i is adjacent to output channel b,
// i.e. W(i) converts to b and b is unoccupied.
func (g *Graph) HasEdge(i, b int) bool {
	if i < 0 || i >= len(g.reqs) || b < 0 || b >= g.conv.K() || !g.usable(int(g.reqs[i].W), b) {
		return false
	}
	return g.conv.CanConvert(g.reqs[i].W, wavelength.Wavelength(b))
}

// Adjacency returns the adjacency interval of left vertex i before
// occupancy filtering. Callers that honor Section V must skip occupied
// members.
func (g *Graph) Adjacency(i int) wavelength.Interval {
	return g.conv.Adjacency(g.reqs[i].W)
}

// AdjacencySlice returns the unoccupied output channels adjacent to left
// vertex i, in ring order from the minus end.
func (g *Graph) AdjacencySlice(i int) []int {
	var out []int
	w := int(g.reqs[i].W)
	g.Adjacency(i).Each(func(b int) {
		if g.usable(w, b) {
			out = append(out, b)
		}
	})
	return out
}

// Bipartite expands the request graph (with occupancy applied) into an
// explicit bipartite graph for use with the general matching baselines.
func (g *Graph) Bipartite() *bipartite.Graph {
	bg := bipartite.NewGraph(len(g.reqs), g.conv.K())
	for i := range g.reqs {
		w := int(g.reqs[i].W)
		g.Adjacency(i).Each(func(b int) {
			if g.usable(w, b) {
				bg.AddEdge(i, b)
			}
		})
	}
	return bg
}

// Clone returns a deep copy of the request graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		conv:     g.conv,
		reqs:     append([]Request(nil), g.reqs...),
		occupied: append([]bool(nil), g.occupied...),
		states:   append(core.ChannelMask(nil), g.states...),
		occBits:  fabric.NewBitVector(g.conv.K()),
		darkBits: fabric.NewBitVector(g.conv.K()),
	}
	c.occBits.CopyFrom(g.occBits)
	c.darkBits.CopyFrom(g.darkBits)
	return c
}

// String renders a compact description for test failures.
func (g *Graph) String() string {
	return fmt.Sprintf("requestgraph{%v vec=%v occ=%v}", g.conv, g.Vector(), g.occupied)
}
