package bipartite

import (
	"container/heap"
	"fmt"
	"sort"
)

// Convex bipartite graphs and Glover's maximum matching algorithm
// (paper Table 1; references [2] F. Glover 1967 and [3] Lipski & Preparata).
//
// A bipartite graph is convex when there is an ordering of the right
// vertices under which every left vertex's neighborhood B(a) is a
// contiguous interval [BEGIN(a), END(a)]. Request graphs under non-circular
// symmetrical wavelength conversion are convex in the natural wavelength
// order (paper Section III).

// ConvexGraph is a bipartite graph in interval representation. Left vertex
// a is adjacent to right vertices Begin[a]..End[a] inclusive. A left vertex
// with Begin[a] > End[a] has no neighbors.
type ConvexGraph struct {
	NRight int
	Begin  []int
	End    []int
}

// NewConvexGraph builds an interval graph and validates the intervals.
func NewConvexGraph(nRight int, begin, end []int) (*ConvexGraph, error) {
	if len(begin) != len(end) {
		return nil, fmt.Errorf("bipartite: begin/end length mismatch %d vs %d", len(begin), len(end))
	}
	for a := range begin {
		if begin[a] > end[a] {
			continue // explicitly empty neighborhood
		}
		if begin[a] < 0 || end[a] >= nRight {
			return nil, fmt.Errorf("bipartite: interval [%d,%d] of left %d out of range [0,%d)", begin[a], end[a], a, nRight)
		}
	}
	return &ConvexGraph{NRight: nRight, Begin: append([]int(nil), begin...), End: append([]int(nil), end...)}, nil
}

// NLeft reports the number of left vertices.
func (c *ConvexGraph) NLeft() int { return len(c.Begin) }

// Graph expands the interval representation into an explicit Graph.
func (c *ConvexGraph) Graph() *Graph {
	g := NewGraph(c.NLeft(), c.NRight)
	for a := range c.Begin {
		for b := c.Begin[a]; b <= c.End[a]; b++ {
			g.AddEdge(a, b)
		}
	}
	return g
}

// Glover computes a maximum matching of the convex graph using Glover's
// algorithm exactly as the paper's Table 1 states it: for each right vertex
// i in order, among the still-unmatched left vertices adjacent to i, match
// the one with minimum END value. This literal form costs O(|E|); see
// GloverHeap for the O((n+k) log n) sweep used in benchmarks. It is a test
// oracle: the core schedulers' tests check their matching sizes against
// it; no production path calls it.
func (c *ConvexGraph) Glover() Matching {
	nL := c.NLeft()
	m := NewMatching(nL, c.NRight)
	taken := make([]bool, nL)
	for i := 0; i < c.NRight; i++ {
		best := Unmatched
		for a := 0; a < nL; a++ {
			if taken[a] || c.Begin[a] > i || c.End[a] < i {
				continue
			}
			if best == Unmatched || c.End[a] < c.End[best] {
				best = a
			}
		}
		if best != Unmatched {
			taken[best] = true
			m.Add(best, i)
		}
	}
	return m
}

// endHeap is a min-heap of left vertices keyed by END value, tie-broken by
// vertex index for determinism.
type endHeap struct {
	end []int
	xs  []int
}

func (h *endHeap) Len() int { return len(h.xs) }
func (h *endHeap) Less(i, j int) bool {
	a, b := h.xs[i], h.xs[j]
	if h.end[a] != h.end[b] {
		return h.end[a] < h.end[b]
	}
	return a < b
}
func (h *endHeap) Swap(i, j int)      { h.xs[i], h.xs[j] = h.xs[j], h.xs[i] }
func (h *endHeap) Push(x interface{}) { h.xs = append(h.xs, x.(int)) }
func (h *endHeap) Pop() interface{} {
	old := h.xs
	n := len(old)
	x := old[n-1]
	h.xs = old[:n-1]
	return x
}

// GloverHeap is the Lipski–Preparata realization of Glover's algorithm:
// sweep right vertices in order, keep the active left vertices (those whose
// interval has opened) in a min-heap on END, and match each right vertex to
// the heap minimum whose interval has not already closed. Like Glover it
// is a test oracle and the root package's BenchmarkGloverHeap baseline; no
// production path calls it.
func (c *ConvexGraph) GloverHeap() Matching {
	nL := c.NLeft()
	m := NewMatching(nL, c.NRight)
	order := make([]int, 0, nL)
	for a := 0; a < nL; a++ {
		if c.Begin[a] <= c.End[a] {
			order = append(order, a)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if c.Begin[a] != c.Begin[b] {
			return c.Begin[a] < c.Begin[b]
		}
		return a < b
	})
	h := &endHeap{end: c.End}
	next := 0
	for i := 0; i < c.NRight; i++ {
		for next < len(order) && c.Begin[order[next]] <= i {
			heap.Push(h, order[next])
			next++
		}
		for h.Len() > 0 && c.End[h.xs[0]] < i {
			heap.Pop(h) // interval closed before being matched
		}
		if h.Len() > 0 {
			a := heap.Pop(h).(int)
			m.Add(a, i)
		}
	}
	return m
}
