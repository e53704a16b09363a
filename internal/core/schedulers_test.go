package core

import (
	"math/rand"
	"testing"

	"wdmsched/internal/bipartite"
	"wdmsched/internal/wavelength"
)

// forEachVector enumerates every request vector of length k with entries in
// [0, maxPer].
func forEachVector(k, maxPer int, fn func(vec []int)) {
	vec := make([]int, k)
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(vec)
			return
		}
		for c := 0; c <= maxPer; c++ {
			vec[i] = c
			rec(i + 1)
		}
	}
	rec(0)
}

// forEachOccupancy enumerates every occupancy mask of length k.
func forEachOccupancy(k int, fn func(occ []bool)) {
	occ := make([]bool, k)
	for bits := 0; bits < 1<<k; bits++ {
		for b := 0; b < k; b++ {
			occ[b] = bits&(1<<b) != 0
		}
		fn(occ)
	}
}

// TestPaperIntroExample reproduces the Section I contention example:
// k = 6, d = 3, two requests on λ1, three on λ2, one on λ4. Full range
// could satisfy all six, limited range only five.
func TestPaperIntroExample(t *testing.T) {
	vec := []int{0, 2, 3, 0, 1, 0}
	for _, conv := range []wavelength.Conversion{circular(6, 1, 1), noncircular(6, 1, 1)} {
		s, err := NewExact(conv)
		if err != nil {
			t.Fatal(err)
		}
		res := NewResult(6)
		s.Schedule(vec, nil, res)
		if res.Size != 5 {
			t.Errorf("%v: granted %d, want 5", conv, res.Size)
		}
		if err := Validate(conv, vec, nil, res); err != nil {
			t.Errorf("%v: %v", conv, err)
		}
	}
	full, _ := NewFullRange(wavelength.MustNew(wavelength.Full, 6, 0, 0))
	res := NewResult(6)
	full.Schedule(vec, nil, res)
	if res.Size != 6 {
		t.Errorf("full range granted %d, want 6", res.Size)
	}
}

// TestFigure4Matchings reproduces Fig. 4: for the request vector
// [2,1,0,1,1,2] both conversion types admit a maximum matching of size 6.
func TestFigure4Matchings(t *testing.T) {
	vec := []int{2, 1, 0, 1, 1, 2}
	for _, conv := range []wavelength.Conversion{circular(6, 1, 1), noncircular(6, 1, 1)} {
		s, err := NewExact(conv)
		if err != nil {
			t.Fatal(err)
		}
		res := NewResult(6)
		s.Schedule(vec, nil, res)
		if res.Size != 6 {
			t.Errorf("%v: granted %d, want 6", conv, res.Size)
		}
		if err := Validate(conv, vec, nil, res); err != nil {
			t.Errorf("%v: %v", conv, err)
		}
	}
}

// TestFirstAvailableExhaustive proves Theorem 1 empirically: on every
// request vector (entries ≤ 2) over every non-circular model with k ≤ 5,
// including every occupancy mask for k ≤ 4, First Available matches the
// Hopcroft–Karp cardinality.
func TestFirstAvailableExhaustive(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for e := 0; e < k; e++ {
			for f := 0; e+f+1 <= k; f++ {
				conv := noncircular(k, e, f)
				fa, err := NewFirstAvailable(conv)
				if err != nil {
					t.Fatal(err)
				}
				base := NewBaseline(conv)
				res, want := NewResult(k), NewResult(k)
				forEachVector(k, 2, func(vec []int) {
					check := func(occ []bool) {
						fa.Schedule(vec, occ, res)
						base.Schedule(vec, occ, want)
						if res.Size != want.Size {
							t.Fatalf("%v vec=%v occ=%v: FA=%d HK=%d", conv, vec, occ, res.Size, want.Size)
						}
						if err := Validate(conv, vec, occ, res); err != nil {
							t.Fatalf("%v vec=%v occ=%v: %v", conv, vec, occ, err)
						}
					}
					check(nil)
					if k <= 4 {
						forEachOccupancy(k, check)
					}
				})
			}
		}
	}
}

// TestBreakFirstAvailableExhaustive proves Theorem 2 empirically: on every
// request vector (entries ≤ 2) over every circular model with k ≤ 5,
// including every occupancy mask for k ≤ 4, Break and First Available
// matches the Hopcroft–Karp cardinality.
func TestBreakFirstAvailableExhaustive(t *testing.T) {
	for k := 1; k <= 5; k++ {
		for e := 0; e < k; e++ {
			for f := 0; e+f+1 <= k; f++ {
				conv := circular(k, e, f)
				bfa, err := NewBreakFirstAvailable(conv)
				if err != nil {
					t.Fatal(err)
				}
				base := NewBaseline(conv)
				res, want := NewResult(k), NewResult(k)
				forEachVector(k, 2, func(vec []int) {
					check := func(occ []bool) {
						bfa.Schedule(vec, occ, res)
						base.Schedule(vec, occ, want)
						if res.Size != want.Size {
							t.Fatalf("%v vec=%v occ=%v: BFA=%d HK=%d", conv, vec, occ, res.Size, want.Size)
						}
						if err := Validate(conv, vec, occ, res); err != nil {
							t.Fatalf("%v vec=%v occ=%v: %v", conv, vec, occ, err)
						}
					}
					check(nil)
					if k <= 4 {
						forEachOccupancy(k, check)
					}
				})
			}
		}
	}
}

// TestFirstAvailableEqualsGlover walks the Theorem 1 proof path directly:
// First Available is Glover's algorithm (paper Table 1) specialized to
// request graphs, so on the convex request graph of any non-circular
// instance the two must produce matchings of identical cardinality.
func TestFirstAvailableEqualsGlover(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(10) + 1
		e := rng.Intn(k)
		f := rng.Intn(k - e)
		conv := noncircular(k, e, f)
		fa, err := NewFirstAvailable(conv)
		if err != nil {
			t.Fatal(err)
		}
		vec, _ := randomInstance(rng, k, 3, 0)
		res := NewResult(k)
		fa.Schedule(vec, nil, res)

		// Expand the request vector into the convex interval
		// representation Glover consumes.
		var begin, end []int
		for w := 0; w < k; w++ {
			iv := conv.Adjacency(wavelength.Wavelength(w))
			for c := 0; c < vec[w]; c++ {
				begin = append(begin, iv.First())
				end = append(end, iv.Last())
			}
		}
		cg, err := bipartite.NewConvexGraph(k, begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if got := cg.Glover().Size(); got != res.Size {
			t.Fatalf("%v vec=%v: FA=%d Glover=%d", conv, vec, res.Size, got)
		}
	}
}

// randomInstance draws a random request vector and occupancy mask.
func randomInstance(rng *rand.Rand, k int, maxPer int, occP float64) ([]int, []bool) {
	vec := make([]int, k)
	for w := range vec {
		vec[w] = rng.Intn(maxPer + 1)
	}
	var occ []bool
	if occP > 0 {
		occ = make([]bool, k)
		for b := range occ {
			occ[b] = rng.Float64() < occP
		}
	}
	return vec, occ
}

// TestExactSchedulersRandomLarge: FA and BFA remain optimal on large random
// instances (k up to 64, loads up to 3 requests per wavelength, random
// occupancy), reusing one scheduler across calls to exercise scratch reuse.
func TestExactSchedulersRandomLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		k := rng.Intn(63) + 2
		e := rng.Intn(k)
		f := rng.Intn(k - e)
		occP := 0.0
		if trial%3 == 0 {
			occP = rng.Float64() * 0.5
		}
		vec, occ := randomInstance(rng, k, 3, occP)
		for _, kind := range []wavelength.Kind{wavelength.Circular, wavelength.NonCircular} {
			conv := wavelength.MustNew(kind, k, e, f)
			s, err := NewExact(conv)
			if err != nil {
				t.Fatal(err)
			}
			base := NewBaseline(conv)
			res, want := NewResult(k), NewResult(k)
			s.Schedule(vec, occ, res)
			base.Schedule(vec, occ, want)
			if res.Size != want.Size {
				t.Fatalf("%v vec=%v occ=%v: %s=%d HK=%d", conv, vec, occ, s.Name(), res.Size, want.Size)
			}
			if err := Validate(conv, vec, occ, res); err != nil {
				t.Fatalf("%v: %v", conv, err)
			}
		}
	}
}

// TestSchedulerReuseIsStateless pins the contract that lets one scheduler
// serve many output fibers in turn: a scheduler keeps no state between
// calls that can change a Result. For every SchedulerNames entry that
// builds on the circular, non-circular and full-range models, and for
// PriorityScheduler, one instance is driven through random instances —
// occupancy and fault masks interleaved with plain calls, into a reused,
// dirty Result — and every full Result must equal a fresh scheduler's on
// the same input.
func TestSchedulerReuseIsStateless(t *testing.T) {
	const k, trials = 70, 60 // k spans two bitset words
	rng := rand.New(rand.NewSource(33))
	for _, conv := range []wavelength.Conversion{
		circular(k, 3, 2), noncircular(k, 2, 3), wavelength.MustNew(wavelength.Full, k, 0, 0),
	} {
		built := 0
		for _, name := range SchedulerNames() {
			if name == deltaBreakPattern {
				name = "delta-break(2)"
			}
			shared, err := NewByName(name, conv)
			if err != nil {
				continue // the name does not apply to this model
			}
			built++
			got := NewResult(k)
			for trial := 0; trial < trials; trial++ {
				vec, occ, mask := randomMaskedInstance(rng, k)
				fresh, err := NewByName(name, conv)
				if err != nil {
					t.Fatal(err)
				}
				want := NewResult(k)
				if mask == nil && trial%2 == 0 {
					shared.Schedule(vec, occ, got)
					fresh.Schedule(vec, occ, want)
				} else {
					shared.ScheduleMasked(vec, occ, mask, got)
					fresh.ScheduleMasked(vec, occ, mask, want)
				}
				if !resultsIdentical(got, want) {
					t.Fatalf("%s on %v, trial %d: reused instance %+v, fresh %+v", name, conv, trial, *got, *want)
				}
				checkIndex(t, name+" reused", got)
				checkIndex(t, name+" fresh", want)
			}
		}
		if built == 0 {
			t.Fatalf("no scheduler name builds on %v", conv)
		}

		shared, err := NewPriorityScheduler(conv)
		if err != nil {
			t.Fatal(err)
		}
		const classes = 3
		got := make([]*Result, classes)
		for c := range got {
			got[c] = NewResult(k)
		}
		for trial := 0; trial < trials; trial++ {
			counts := make([][]int, classes)
			var occ []bool
			var mask ChannelMask
			for c := range counts {
				counts[c], occ, mask = randomMaskedInstance(rng, k)
			}
			fresh, err := NewPriorityScheduler(conv)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*Result, classes)
			for c := range want {
				want[c] = NewResult(k)
			}
			if err := shared.ScheduleClassesMasked(counts, occ, mask, got); err != nil {
				t.Fatal(err)
			}
			if err := fresh.ScheduleClassesMasked(counts, occ, mask, want); err != nil {
				t.Fatal(err)
			}
			for c := range got {
				if !resultsIdentical(got[c], want[c]) {
					t.Fatalf("%s on %v, trial %d, class %d: reused instance %+v, fresh %+v",
						shared.Name(), conv, trial, c, *got[c], *want[c])
				}
				checkIndex(t, shared.Name()+" reused", got[c])
			}
		}
	}
}

// TestDeltaBreakBound verifies Theorem 3: for every breaking position δ,
// the single-break matching is within max{δ−1, d−δ} of optimal; and
// Corollary 1: the shortest edge (δ = (d+1)/2) is within (d−1)/2.
func TestDeltaBreakBound(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, cfg := range []struct{ k, e, f int }{
		{6, 1, 1}, {8, 2, 2}, {10, 2, 2}, {12, 3, 3}, {9, 1, 2}, {11, 3, 1},
	} {
		conv := circular(cfg.k, cfg.e, cfg.f)
		d := conv.Degree()
		exact, err := NewBreakFirstAvailable(conv)
		if err != nil {
			t.Fatal(err)
		}
		res, opt := NewResult(cfg.k), NewResult(cfg.k)
		for delta := 1; delta <= d; delta++ {
			db, err := NewDeltaBreak(conv, delta)
			if err != nil {
				t.Fatal(err)
			}
			bound := delta - 1
			if d-delta > bound {
				bound = d - delta
			}
			for trial := 0; trial < 200; trial++ {
				vec, _ := randomInstance(rng, cfg.k, 3, 0)
				db.Schedule(vec, nil, res)
				exact.Schedule(vec, nil, opt)
				if err := Validate(conv, vec, nil, res); err != nil {
					t.Fatalf("%v δ=%d vec=%v: %v", conv, delta, vec, err)
				}
				if gap := opt.Size - res.Size; gap < 0 || gap > bound {
					t.Fatalf("%v δ=%d vec=%v: gap %d outside [0, %d] (approx=%d opt=%d)",
						conv, delta, vec, gap, bound, res.Size, opt.Size)
				}
			}
		}
	}
}

// TestShortestEdgeDelta checks the Corollary 1 choice of δ.
func TestShortestEdgeDelta(t *testing.T) {
	for _, cfg := range []struct{ k, e, f, want int }{
		{6, 1, 1, 2},  // d=3 → δ=2
		{12, 2, 2, 3}, // d=5 → δ=3
		{12, 3, 3, 4}, // d=7 → δ=4
	} {
		conv := circular(cfg.k, cfg.e, cfg.f)
		se, err := NewShortestEdge(conv)
		if err != nil {
			t.Fatal(err)
		}
		if se.Delta() != cfg.want {
			t.Errorf("%v: δ=%d, want %d", conv, se.Delta(), cfg.want)
		}
	}
}

// TestDeltaBreakWithOccupancy: the approximation stays feasible and never
// exceeds the optimum when channels are occupied.
func TestDeltaBreakWithOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	conv := circular(10, 2, 2)
	se, err := NewShortestEdge(conv)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := NewBreakFirstAvailable(conv)
	res, opt := NewResult(10), NewResult(10)
	for trial := 0; trial < 300; trial++ {
		vec, occ := randomInstance(rng, 10, 2, 0.4)
		se.Schedule(vec, occ, res)
		exact.Schedule(vec, occ, opt)
		if err := Validate(conv, vec, occ, res); err != nil {
			t.Fatalf("vec=%v occ=%v: %v", vec, occ, err)
		}
		if res.Size > opt.Size {
			t.Fatalf("vec=%v occ=%v: approx %d exceeds optimum %d", vec, occ, res.Size, opt.Size)
		}
	}
}

// TestBFAFullRingDegree: circular conversion with d = k must behave as full
// range through both BFA's fast path and the dispatcher.
func TestBFAFullRingDegree(t *testing.T) {
	conv := circular(5, 2, 2)
	bfa, err := NewBreakFirstAvailable(conv)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResult(5)
	vec := []int{3, 0, 0, 0, 3}
	bfa.Schedule(vec, nil, res)
	if res.Size != 5 {
		t.Fatalf("Size = %d, want 5", res.Size)
	}
	if err := Validate(conv, vec, nil, res); err != nil {
		t.Fatal(err)
	}
}

// TestAllOccupied: nothing can be granted when every channel is occupied.
func TestAllOccupied(t *testing.T) {
	occ := []bool{true, true, true, true, true, true}
	vec := []int{1, 1, 1, 1, 1, 1}
	for _, conv := range []wavelength.Conversion{circular(6, 1, 1), noncircular(6, 1, 1)} {
		s, _ := NewExact(conv)
		res := NewResult(6)
		s.Schedule(vec, occ, res)
		if res.Size != 0 {
			t.Errorf("%v: granted %d with all channels occupied", conv, res.Size)
		}
	}
}

// TestPartiallyUnmatchableWavelengths: a wavelength whose whole window is
// occupied must not poison scheduling of other wavelengths (exercises the
// firstMatchable prefilter).
func TestPartiallyUnmatchableWavelengths(t *testing.T) {
	conv := circular(8, 1, 1)
	bfa, _ := NewBreakFirstAvailable(conv)
	base := NewBaseline(conv)
	// λ0's window {7,0,1} fully occupied; λ4 free.
	occ := []bool{true, true, false, false, false, false, false, true}
	vec := []int{2, 0, 0, 0, 2, 0, 0, 0}
	res, want := NewResult(8), NewResult(8)
	bfa.Schedule(vec, occ, res)
	base.Schedule(vec, occ, want)
	if res.Size != want.Size {
		t.Fatalf("BFA=%d HK=%d", res.Size, want.Size)
	}
	if res.Granted[0] != 0 {
		t.Fatal("granted an unmatchable wavelength")
	}
	if res.Granted[4] != 2 {
		t.Fatalf("λ4 granted %d, want 2", res.Granted[4])
	}
}

// TestZeroAllocHotPath: the production schedulers must not allocate per
// slot (the paper targets µs hardware decisions; the Go port keeps the
// steady state allocation-free).
func TestZeroAllocHotPath(t *testing.T) {
	k := 32
	vec := make([]int, k)
	occ := make([]bool, k)
	rng := rand.New(rand.NewSource(1))
	for w := range vec {
		vec[w] = rng.Intn(3)
		occ[w] = rng.Float64() < 0.2
	}
	res := NewResult(k)
	schedulers := []Scheduler{}
	fa, _ := NewFirstAvailable(wavelength.MustNew(wavelength.NonCircular, k, 2, 2))
	bfa, _ := NewBreakFirstAvailable(wavelength.MustNew(wavelength.Circular, k, 2, 2))
	se, _ := NewShortestEdge(wavelength.MustNew(wavelength.Circular, k, 2, 2))
	fr, _ := NewFullRange(wavelength.MustNew(wavelength.Full, k, 0, 0))
	schedulers = append(schedulers, fa, bfa, se, fr)
	for _, s := range schedulers {
		s := s
		allocs := testing.AllocsPerRun(100, func() {
			s.Schedule(vec, occ, res)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per Schedule, want 0", s.Name(), allocs)
		}
	}
}
