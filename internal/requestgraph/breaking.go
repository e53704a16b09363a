package requestgraph

import (
	"fmt"

	"wdmsched/internal/bipartite"
	"wdmsched/internal/wavelength"
)

// Breaking the request graph (paper Definition 2 and Section IV-A).
//
// Breaking G at edge a_i→b_u removes a_i, b_u, all edges incident to them,
// and every edge that crosses a_i→b_u. The paper then left-shifts the
// vertex orders so a_{i+1} and b_{u+1} come first; in that ordering the
// reduced graph G' is convex with monotone interval endpoints (Lemma 2), so
// the First Available Algorithm applies.

// Broken is a reduced request graph in its convex reordering.
type Broken struct {
	// I and U identify the breaking edge a_I→b_U in the original graph.
	I, U int
	// Lefts maps reduced left position → original left index:
	// a_{i+1}, …, a_{n−1}, a_0, …, a_{i−1}.
	Lefts []int
	// Rights maps reduced right position → original right index:
	// b_{u+1}, …, b_{k−1}, b_0, …, b_{u−1}.
	Rights []int
	// Begin and End give, per reduced left position, the adjacency
	// interval in reduced right positions (Begin > End means empty).
	// Occupancy is NOT applied here; consumers must skip occupied
	// columns via the original graph.
	Begin, End []int
}

// RightPos returns the reduced position of original right vertex v, which
// must not be the broken vertex U.
func (br *Broken) RightPos(v, k int) int {
	p := v - br.U - 1
	if p < 0 {
		p += k
	}
	return p
}

// Break breaks g at edge a_i→b_u and returns the reduced graph in convex
// form using the closed-form adjacency intervals of Section IV-A. It
// returns an error if (i, u) is not an edge by convertibility. This is the
// production path used by the Break-and-First-Available scheduler.
func (g *Graph) Break(i, u int) (*Broken, error) {
	conv := g.conv
	if conv.Kind() != wavelength.Circular {
		return nil, fmt.Errorf("requestgraph: Break requires circular conversion, have %v", conv.Kind())
	}
	k := conv.K()
	n := len(g.reqs)
	if i < 0 || i >= n {
		return nil, fmt.Errorf("requestgraph: break vertex a%d out of range", i)
	}
	if u < 0 || u >= k || !conv.CanConvert(g.reqs[i].W, wavelength.Wavelength(u)) {
		return nil, fmt.Errorf("requestgraph: (a%d,b%d) is not an edge", i, u)
	}
	e, f := conv.MinusReach(), conv.PlusReach()
	wi := g.W(i)
	ur := rep(u, wi-e, k)

	br := &Broken{
		I: i, U: u,
		Lefts:  make([]int, 0, n-1),
		Rights: make([]int, 0, k-1),
		Begin:  make([]int, 0, n-1),
		End:    make([]int, 0, n-1),
	}
	for p := 1; p < k; p++ {
		br.Rights = append(br.Rights, (u+p)%k)
	}
	// pos maps an unreduced wavelength integer to its reduced right
	// position; valid only for wavelengths ≢ u (mod k).
	pos := func(x int) int {
		p := (x - u - 1) % k
		if p < 0 {
			p += k
		}
		return p
	}
	appendLeft := func(j int) {
		wj := g.W(j)
		var lo, hi int // unreduced interval of the new adjacency set
		switch {
		case wj == wi:
			if j > i {
				lo, hi = ur+1, wi+f
			} else {
				lo, hi = wi-e, ur-1
			}
		case wavelength.InRing(wj, ur-f, wi-1, k):
			// Minus-side group: edges above b_u were crossing edges of
			// a_i→b_u (or b_u itself) and are gone.
			wjr := rep(wj, ur-f, k)
			lo, hi = wjr-e, ur-1
		case wavelength.InRing(wj, wi+1, ur+e, k):
			// Plus-side group: edges below b_u are gone.
			wjr := rep(wj, wi+1, k)
			lo, hi = ur+1, wjr+f
		default:
			// Not adjacent to b_u: adjacency unchanged.
			lo, hi = wj-e, wj+f
		}
		br.Lefts = append(br.Lefts, j)
		if hi < lo {
			br.Begin = append(br.Begin, 1)
			br.End = append(br.End, 0)
			return
		}
		br.Begin = append(br.Begin, pos(lo))
		br.End = append(br.End, pos(hi))
	}
	for j := i + 1; j < n; j++ {
		appendLeft(j)
	}
	for j := 0; j < i; j++ {
		appendLeft(j)
	}
	return br, nil
}

// BreakExplicit breaks g at edge a_i→b_u by direct application of
// Definitions 1 and 2: it enumerates surviving edges with the Crosses
// predicate. It is the test oracle the closed-form Break is checked
// against; no production path calls it.
// The returned bipartite graph is indexed by the Broken orderings and has
// occupancy applied (edges to occupied channels omitted).
func (g *Graph) BreakExplicit(i, u int) (*Broken, *bipartite.Graph, error) {
	br, err := g.Break(i, u)
	if err != nil {
		return nil, nil, err
	}
	k := g.conv.K()
	n := len(g.reqs)
	leftPos := make(map[int]int, n-1)
	for p, j := range br.Lefts {
		leftPos[j] = p
	}
	bg := bipartite.NewGraph(n-1, k-1)
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		g.Adjacency(j).Each(func(v int) {
			if v == u || g.occupied[v] {
				return
			}
			if g.Crosses(j, v, i, u) {
				return
			}
			bg.AddEdge(leftPos[j], br.RightPos(v, k))
		})
	}
	return br, bg, nil
}

// ConvexGraph converts the closed-form reduced graph to the bipartite
// package's convex representation (occupancy not applied).
func (br *Broken) ConvexGraph(k int) (*bipartite.ConvexGraph, error) {
	return bipartite.NewConvexGraph(k-1, br.Begin, br.End)
}
