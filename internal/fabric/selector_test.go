package fabric

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// TestRoundRobinMatchesModuloOracle holds RoundRobin.Pick to the plain
// definition — start at the first requester at or after the pointer, take
// grants of them in cyclic order by index modulo the list length, move the
// pointer one past the last winner — over random requester lists, every
// grant count and pointers before, inside and past the list, with the
// pointer carried from call to call.
func TestRoundRobinMatchesModuloOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const k = 4
	s := NewRoundRobin(k)
	next := make([]int, k) // the oracle's pointers
	oracle := func(w int, requesters []int, grants int) []int {
		var won []int
		if grants == 0 {
			return won
		}
		start := 0
		for i, f := range requesters {
			if f >= next[w] {
				start = i
				break
			}
		}
		for g := range grants {
			won = append(won, requesters[(start+g)%len(requesters)])
		}
		next[w] = won[len(won)-1] + 1
		return won
	}
	var got []int
	for trial := range 2000 {
		w := rng.IntN(k)
		n := 1 + rng.IntN(16)
		requesters := rng.Perm(24)[:n] // fiber ids 0…23, some missing
		slices.Sort(requesters)
		if trial%3 == 0 { // a fresh pointer before, inside or past the list
			p := rng.IntN(28)
			next[w], s.next[w] = p, p
		}
		for grants := range n + 1 {
			want := oracle(w, requesters, grants)
			got = s.Pick(w, requesters, grants, got[:0])
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: Pick(λ%d, %v, %d) = %v, want %v", trial, w, requesters, grants, got, want)
			}
			if s.next[w] != next[w] {
				t.Fatalf("trial %d: pointer %d after Pick, want %d", trial, s.next[w], next[w])
			}
		}
	}
}
