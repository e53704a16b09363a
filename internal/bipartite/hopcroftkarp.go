package bipartite

// Hopcroft–Karp maximum bipartite matching, the paper's general-case
// baseline: reference [1], J. Hopcroft and R. Karp, "An n^(5/2) algorithm
// for maximum matchings in bipartite graphs", SIAM J. Comput. 1973. Running
// time O(√V · E). Applied naively to a request graph the paper bounds this
// as O(N^(3/2) k^(3/2) d), the figure its own O(k) / O(dk) algorithms are
// measured against.

const infDist = int(^uint(0) >> 1)

// HopcroftKarp computes a maximum matching of g.
func HopcroftKarp(g *Graph) Matching {
	hk := newHKState(g)
	return hk.run()
}

// hkState carries the BFS/DFS scratch of one Hopcroft–Karp execution.
type hkState struct {
	g       *Graph
	matchL  []int // matchL[a] = right partner of left a, or Unmatched
	matchR  []int // matchR[b] = left partner of right b, or Unmatched
	dist    []int
	queue   []int
	distNil int
}

func newHKState(g *Graph) *hkState {
	hk := &hkState{
		g:      g,
		matchL: make([]int, g.NLeft()),
		matchR: make([]int, g.NRight()),
		dist:   make([]int, g.NLeft()),
		queue:  make([]int, 0, g.NLeft()),
	}
	for i := range hk.matchL {
		hk.matchL[i] = Unmatched
	}
	for i := range hk.matchR {
		hk.matchR[i] = Unmatched
	}
	return hk
}

func (hk *hkState) run() Matching {
	for hk.bfs() {
		for a := 0; a < hk.g.NLeft(); a++ {
			if hk.matchL[a] == Unmatched {
				hk.dfs(a)
			}
		}
	}
	m := NewMatching(hk.g.NLeft(), hk.g.NRight())
	for a, b := range hk.matchL {
		if b != Unmatched {
			m.Add(a, b)
		}
	}
	return m
}

// bfs layers the alternating-path forest from all free left vertices and
// reports whether at least one augmenting path exists.
func (hk *hkState) bfs() bool {
	hk.queue = hk.queue[:0]
	for a := 0; a < hk.g.NLeft(); a++ {
		if hk.matchL[a] == Unmatched {
			hk.dist[a] = 0
			hk.queue = append(hk.queue, a)
		} else {
			hk.dist[a] = infDist
		}
	}
	hk.distNil = infDist
	for head := 0; head < len(hk.queue); head++ {
		a := hk.queue[head]
		if hk.dist[a] >= hk.distNil {
			continue
		}
		for _, b := range hk.g.Adj(a) {
			next := hk.matchR[b]
			if next == Unmatched {
				if hk.distNil == infDist {
					hk.distNil = hk.dist[a] + 1
				}
			} else if hk.dist[next] == infDist {
				hk.dist[next] = hk.dist[a] + 1
				hk.queue = append(hk.queue, next)
			}
		}
	}
	return hk.distNil != infDist
}

// dfs searches for a vertex-disjoint augmenting path from free left vertex
// a along the BFS layering, flipping matched edges along the way.
func (hk *hkState) dfs(a int) bool {
	for _, b := range hk.g.Adj(a) {
		next := hk.matchR[b]
		if next == Unmatched {
			if hk.distNil == hk.dist[a]+1 {
				hk.matchR[b] = a
				hk.matchL[a] = b
				return true
			}
			continue
		}
		if hk.dist[next] == hk.dist[a]+1 && hk.dfs(next) {
			hk.matchR[b] = a
			hk.matchL[a] = b
			return true
		}
	}
	hk.dist[a] = infDist
	return false
}

// AugmentingPath computes a maximum matching by repeated single augmenting
// path search (Hungarian-style), O(V·E). It is a test oracle, called by
// no production path: an independent implementation to cross-check
// Hopcroft–Karp, since two implementations sharing no code must agree on
// cardinality.
func AugmentingPath(g *Graph) Matching {
	matchL := make([]int, g.NLeft())
	matchR := make([]int, g.NRight())
	for i := range matchL {
		matchL[i] = Unmatched
	}
	for i := range matchR {
		matchR[i] = Unmatched
	}
	visited := make([]bool, g.NRight())
	var try func(a int) bool
	try = func(a int) bool {
		for _, b := range g.Adj(a) {
			if visited[b] {
				continue
			}
			visited[b] = true
			if matchR[b] == Unmatched || try(matchR[b]) {
				matchR[b] = a
				matchL[a] = b
				return true
			}
		}
		return false
	}
	for a := 0; a < g.NLeft(); a++ {
		for i := range visited {
			visited[i] = false
		}
		try(a)
	}
	m := NewMatching(g.NLeft(), g.NRight())
	for a, b := range matchL {
		if b != Unmatched {
			m.Add(a, b)
		}
	}
	return m
}

// IsMaximum verifies that m is a maximum matching of g by checking that no
// augmenting path exists relative to m (Berge's theorem). It assumes m is a
// valid matching of g (call Validate first when in doubt). It is a test
// oracle; no production path calls it.
func IsMaximum(g *Graph, m Matching) bool {
	visited := make([]bool, g.NRight())
	var try func(a int) bool
	matchR := append([]int(nil), m.LeftOf...)
	matchL := append([]int(nil), m.RightOf...)
	try = func(a int) bool {
		for _, b := range g.Adj(a) {
			if visited[b] {
				continue
			}
			visited[b] = true
			if matchR[b] == Unmatched || try(matchR[b]) {
				matchR[b] = a
				matchL[a] = b
				return true
			}
		}
		return false
	}
	for a := 0; a < g.NLeft(); a++ {
		if matchL[a] != Unmatched {
			continue
		}
		for i := range visited {
			visited[i] = false
		}
		if try(a) {
			return false // found an augmenting path: m was not maximum
		}
	}
	return true
}

// MinVertexCover returns a minimum vertex cover (König's theorem) built
// from maximum matching m: left vertices NOT reachable from free left
// vertices by alternating paths, plus right vertices that ARE reachable.
// Its size equals m.Size() and certifies optimality: every edge is covered
// and no matching can exceed any vertex cover. Today it is a test oracle;
// no production path calls it.
func MinVertexCover(g *Graph, m Matching) (left, right []bool) {
	nL, nR := g.NLeft(), g.NRight()
	visL := make([]bool, nL)
	visR := make([]bool, nR)
	queue := make([]int, 0, nL)
	for a := 0; a < nL; a++ {
		if m.RightOf[a] == Unmatched {
			visL[a] = true
			queue = append(queue, a)
		}
	}
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		for _, b := range g.Adj(a) {
			if visR[b] {
				continue
			}
			visR[b] = true
			next := m.LeftOf[b]
			if next != Unmatched && !visL[next] {
				visL[next] = true
				queue = append(queue, next)
			}
		}
	}
	left = make([]bool, nL)
	right = make([]bool, nR)
	for a := 0; a < nL; a++ {
		left[a] = !visL[a]
	}
	for b := 0; b < nR; b++ {
		right[b] = visR[b]
	}
	return left, right
}
