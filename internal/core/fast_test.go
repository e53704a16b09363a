package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wdmsched/internal/wavelength"
)

// randomMaskedInstance draws a request vector, occupancy and fault mask for k
// wavelengths. Roughly a third of the draws have no occupancy and a third
// no faults, so the plain paths stay covered.
func randomMaskedInstance(rng *rand.Rand, k int) (vec []int, occ []bool, mask ChannelMask) {
	vec = make([]int, k)
	density := []float64{0.1, 0.5, 0.9}[rng.Intn(3)]
	for w := 0; w < k; w++ {
		if rng.Float64() < density {
			vec[w] = rng.Intn(4) + 1
		}
	}
	if rng.Intn(3) > 0 {
		occ = make([]bool, k)
		for b := 0; b < k; b++ {
			occ[b] = rng.Float64() < 0.3
		}
	}
	if rng.Intn(3) > 0 {
		mask = make(ChannelMask, k)
		for b := 0; b < k; b++ {
			if rng.Float64() < 0.15 {
				mask[b] = ChannelState(rng.Intn(2) + 1)
			}
		}
	}
	return vec, occ, mask
}

// promotedAndReference builds the scheduler NewExact returns for a circular
// model — which must be the word-parallel kernel — and the scalar Table 3
// transcription it has to reproduce byte for byte.
func promotedAndReference(t testing.TB, conv wavelength.Conversion) (Scheduler, *BreakFirstAvailable) {
	t.Helper()
	promoted, err := NewExact(conv)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := promoted.(*FastBFA); !ok && !conv.IsFullRange() {
		t.Fatalf("NewExact(%v) built %T, want *FastBFA", conv, promoted)
	}
	ref, err := NewBreakFirstAvailable(conv)
	if err != nil {
		t.Fatal(err)
	}
	return promoted, ref
}

// TestFastKernelsWordBoundaries cross-checks the promoted word-parallel
// kernel against the scalar reference — byte-identical Results — at k
// values around the uint64 word boundaries, where tail-masking bugs live.
// The in-package fuzzers reach k ≤ 64; this covers the large-k regime the
// kernel exists for. Every eighth trial also checks the matching size
// against the Hopcroft–Karp oracle.
func TestFastKernelsWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(20030422))
	for _, k := range []int{5, 63, 64, 65, 127, 128, 129} {
		for trial := 0; trial < 40; trial++ {
			e := rng.Intn(k)
			f := rng.Intn(k - e)
			vec, occ, mask := randomMaskedInstance(rng, k)
			conv, err := wavelength.New(wavelength.Circular, k, e, f)
			if err != nil {
				t.Fatal(err)
			}
			fast, scalar := promotedAndReference(t, conv)
			sres, fres := NewResult(k), NewResult(k)
			scalar.ScheduleMasked(vec, occ, mask, sres)
			fast.ScheduleMasked(vec, occ, mask, fres)
			if err := ValidateMasked(conv, vec, occ, mask, fres); err != nil {
				t.Fatalf("%v trial %d: %s infeasible: %v", conv, trial, fast.Name(), err)
			}
			if !resultsIdentical(fres, sres) {
				t.Fatalf("%v trial %d vec=%v occ=%v mask=%v: %s diverged from %s (fast size=%d scalar size=%d)",
					conv, trial, vec, occ, mask, fast.Name(), scalar.Name(), fres.Size, sres.Size)
			}
			if trial%8 == 0 {
				want := NewResult(k)
				NewBaseline(conv).ScheduleMasked(vec, occ, mask, want)
				if fres.Size != want.Size {
					t.Fatalf("%v trial %d: %s=%d HK=%d", conv, trial, fast.Name(), fres.Size, want.Size)
				}
			}
		}
	}
}

// TestFastKernelsPlainScheduleIdentical exercises the maskless Schedule
// entry point directly (the interconnect hot path) at word-boundary sizes.
func TestFastKernelsPlainScheduleIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []int{63, 64, 65, 128, 129} {
		for trial := 0; trial < 30; trial++ {
			e := rng.Intn(min(k, 32))
			f := rng.Intn(min(k-e, 32))
			vec, occ, _ := randomMaskedInstance(rng, k)
			conv, err := wavelength.New(wavelength.Circular, k, e, f)
			if err != nil {
				t.Fatal(err)
			}
			fast, scalar := promotedAndReference(t, conv)
			sres, fres := NewResult(k), NewResult(k)
			scalar.Schedule(vec, occ, sres)
			fast.Schedule(vec, occ, fres)
			if !resultsIdentical(fres, sres) {
				t.Fatalf("%v trial %d vec=%v occ=%v: fast diverged (size %d vs %d)",
					conv, trial, vec, occ, fres.Size, sres.Size)
			}
		}
	}
}

// TestFastKernelFusedPassEdges pins the inputs the fused pack passes and
// the kept winner rotation could get wrong: the all-zero vector, every
// channel occupied, word-boundary k, the widest non-full-range degree
// d = k−1, a stale Result from a previous slot, and a winner that is not
// the last candidate sized.
func TestFastKernelFusedPassEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{2, 3, 63, 64, 65, 130} {
		for _, reach := range [][2]int{{0, 0}, {1, 1}, {(k - 2) / 2, k - 2 - (k-2)/2}} {
			if reach[0]+reach[1]+1 >= k {
				continue // full range has no kernel
			}
			conv, err := wavelength.New(wavelength.Circular, k, reach[0], reach[1])
			if err != nil {
				t.Fatal(err)
			}
			fast, scalar := promotedAndReference(t, conv)
			zero, full := make([]int, k), make([]bool, k)
			for b := range full {
				full[b] = true
			}
			ones := make([]int, k)
			for w := range ones {
				ones[w] = 1
			}
			// One free channel far from the only request: unmatchable when
			// the window does not reach it.
			lone, loneOcc := make([]int, k), make([]bool, k)
			copy(loneOcc, full)
			lone[0], loneOcc[k/2] = 3, false
			type edgeCase struct {
				name string
				vec  []int
				occ  []bool
			}
			cases := []edgeCase{
				{"all-zero", zero, nil},
				{"all-zero occupied", zero, full},
				{"every channel occupied", ones, full},
				{"one request per wavelength", ones, nil},
				{"lone request", lone, loneOcc},
			}
			for trial := 0; trial < 6; trial++ {
				vec, occ, _ := randomMaskedInstance(rng, k)
				cases = append(cases, edgeCase{"random", vec, occ})
			}
			sres, fres := NewResult(k), NewResult(k)
			for _, tc := range cases {
				// fres deliberately carries the previous case's grants in:
				// pack must clear it exactly as Reset would.
				scalar.Schedule(tc.vec, tc.occ, sres)
				fast.Schedule(tc.vec, tc.occ, fres)
				if !resultsIdentical(fres, sres) {
					t.Fatalf("%v %s vec=%v occ=%v: %s diverged from %s:\nfast   %+v\nscalar %+v",
						conv, tc.name, tc.vec, tc.occ, fast.Name(), scalar.Name(), fres, sres)
				}
			}
		}
	}
}

// TestChannelIndexWordBoundaries holds every scheduler's channel index to
// the counting-sort oracle at k around the uint64 word boundaries, on the
// masked and maskless paths of every conversion kind, and pins the two
// runs the kernel's emission has to straighten: the breaking edge on the
// last channel k−1 (w0's run then wraps right after it) and a bucket whose
// window wraps from channel k−1 to 0.
func TestChannelIndexWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, k := range []int{63, 64, 65, 127, 128, 129, 130} {
		for _, conv := range []wavelength.Conversion{
			circular(k, 3, 2), circular(k, 20, 20), noncircular(k, 2, 3),
			wavelength.MustNew(wavelength.Full, k, 0, 0),
		} {
			for _, name := range SchedulerNames() {
				if name == deltaBreakPattern {
					name = "delta-break(2)"
				}
				sched, err := NewByName(name, conv)
				if err != nil {
					continue
				}
				res := NewResult(k)
				for trial := 0; trial < 12; trial++ {
					vec, occ, mask := randomMaskedInstance(rng, k)
					label := fmt.Sprintf("%s on %v trial %d", name, conv, trial)
					sched.ScheduleMasked(vec, occ, mask, res)
					checkIndex(t, label+" masked", res)
					sched.Schedule(vec, occ, res)
					checkIndex(t, label, res)
				}
			}
		}

		conv := circular(k, 1, 1)
		fast, _ := promotedAndReference(t, conv)
		res := NewResult(k)
		// Two requests on λ0: the first candidate breaks at channel k−1 and
		// the leftover request takes channel 0, past the wrap.
		vec := make([]int, k)
		vec[0] = 2
		fast.Schedule(vec, nil, res)
		if res.BreakChannel != k-1 || !slices.Equal(res.Channels(0), []int{0, k - 1}) {
			t.Fatalf("k=%d: break %d, λ0 channels %v; want break %d, channels [0 %d]",
				k, res.BreakChannel, res.Channels(0), k-1, k-1)
		}
		checkIndex(t, fmt.Sprintf("k=%d break at k−1", k), res)

		// w0 = λ10 breaks at channel 8; λ(k−1)'s four requests fill its
		// window k−3 … 0 across the wrap.
		conv = circular(k, 2, 2)
		fast, _ = promotedAndReference(t, conv)
		vec = make([]int, k)
		vec[10], vec[k-1] = 1, 4
		fast.Schedule(vec, nil, res)
		if want := []int{0, k - 3, k - 2, k - 1}; res.BreakChannel != 8 || !slices.Equal(res.Channels(k-1), want) {
			t.Fatalf("k=%d: break %d, λ%d channels %v; want break 8, channels %v",
				k, res.BreakChannel, k-1, res.Channels(k-1), want)
		}
		checkIndex(t, fmt.Sprintf("k=%d wrapped run", k), res)
	}
}

// hallBound packs (count, occupied) into s as Schedule does and returns the
// kernel's reachable-channel bound, min(requests, reachable free channels),
// next to the plain one, min(requests, free channels).
func hallBound(s *FastBFA, count []int, occupied []bool) (hall, plain int) {
	total, avail := s.pack(count, occupied, NewResult(len(count)))
	return min(total, s.reachable(avail)), min(total, avail)
}

// reachableOracle counts the free channels inside the conversion window of
// some wavelength with a request, channel by channel.
func reachableOracle(conv wavelength.Conversion, count []int, occupied []bool) int {
	n := 0
	for b := range count {
		if occupied != nil && occupied[b] {
			continue
		}
		for w, c := range count {
			if c > 0 && conv.CanConvert(wavelength.Wavelength(w), wavelength.Wavelength(b)) {
				n++
				break
			}
		}
	}
	return n
}

// hotBand returns k wavelengths with 8 requests on each of λ0…λ7: at d = 41
// the 64 requests reach only the 48 channels λ236…λ27 (across the wrap).
func hotBand(k int) []int {
	vec := make([]int, k)
	for w := 0; w < 8; w++ {
		vec[w] = 8
	}
	return vec
}

// TestReachableBoundOracle holds the kernel's reachable-channel count to the
// channel-by-channel oracle at k around the word boundaries, on sparse
// vectors whose gaps open and wrap anywhere on the ring, with and without
// occupancy.
func TestReachableBoundOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, k := range []int{2, 5, 63, 64, 65, 128, 130} {
		for _, reach := range [][2]int{{0, 0}, {1, 1}, {0, 3}, {5, 2}, {(k - 2) / 2, k - 2 - (k-2)/2}} {
			if reach[0]+reach[1]+1 >= k {
				continue
			}
			conv := circular(k, reach[0], reach[1])
			s, err := NewFastBFA(conv)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 40; trial++ {
				vec := make([]int, k)
				for n := rng.Intn(6); n >= 0; n-- {
					vec[rng.Intn(k)] = rng.Intn(3)
				}
				var occ []bool
				if trial%2 == 1 {
					occ = make([]bool, k)
					for b := range occ {
						occ[b] = rng.Intn(3) == 0
					}
				}
				_, avail := s.pack(vec, occ, NewResult(k))
				if got, want := s.reachable(avail), reachableOracle(conv, vec, occ); got != want {
					t.Fatalf("%v vec=%v occ=%v: reachable %d, oracle %d", conv, vec, occ, got, want)
				}
			}
		}
	}
}

// TestHallBoundStopsHotBand pins the case the reachable-channel bound
// exists for: on the overloaded hot band the scalar bound min(64, 256) is
// never met, but the first candidate sized meets min(64, 48) = 48, the
// maximum matching, so the kernel sizes one candidate instead of all 41
// and still returns the scalar Table 3 Result.
func TestHallBoundStopsHotBand(t *testing.T) {
	const k = 256
	conv := circular(k, 20, 20)
	vec := hotBand(k)
	fast, scalar := promotedAndReference(t, conv)
	fres, sres, hk := NewResult(k), NewResult(k), NewResult(k)
	fast.Schedule(vec, nil, fres)
	scalar.Schedule(vec, nil, sres)
	NewBaseline(conv).Schedule(vec, nil, hk)
	s := fast.(*FastBFA)
	if s.sized != 1 || s.hall != 48 || hk.Size != 48 {
		t.Fatalf("hot band: sized %d candidates, bound %d, HK %d; want 1, 48, 48", s.sized, s.hall, hk.Size)
	}
	if !resultsIdentical(fres, sres) {
		t.Fatalf("hot band: kernel diverged from the scalar reference:\nfast   %+v\nscalar %+v", fres, sres)
	}
}

// TestHallBoundUnmet builds the regime where the bound cannot help: the hot
// band plus one request on each of λ128…λ135, far from it. Their windows
// add 48 reachable channels and 8 grants, so min(requests, reachable) = 72
// exceeds the maximum matching 56 and every free candidate is sized — all
// 41, or as many of the breaking window's channels as are left free.
func TestHallBoundUnmet(t *testing.T) {
	const k = 256
	conv := circular(k, 20, 20)
	vec := hotBand(k)
	for w := 128; w < 136; w++ {
		vec[w] = 1
	}
	quarter := make([]bool, k)
	for b := 0; b < k; b += 4 {
		quarter[b] = true
	}
	fast, scalar := promotedAndReference(t, conv)
	s := fast.(*FastBFA)
	for _, occ := range [][]bool{nil, quarter} {
		fres, sres, hk := NewResult(k), NewResult(k), NewResult(k)
		fast.Schedule(vec, occ, fres)
		scalar.Schedule(vec, occ, sres)
		NewBaseline(conv).Schedule(vec, occ, hk)
		free := 0 // candidates u = λ0−20 … λ0+20
		for i := -20; i <= 20; i++ {
			if occ == nil || !occ[ringMod(i, k)] {
				free++
			}
		}
		hall, _ := hallBound(s, vec, occ)
		if hall <= hk.Size {
			t.Fatalf("occ=%v: bound %d meets HK %d; the case must leave it unmet", occ != nil, hall, hk.Size)
		}
		if s.sized != free {
			t.Fatalf("occ=%v: sized %d candidates, want every free one (%d)", occ != nil, s.sized, free)
		}
		if !resultsIdentical(fres, sres) {
			t.Fatalf("occ=%v: kernel diverged from the scalar reference:\nfast   %+v\nscalar %+v", occ != nil, fres, sres)
		}
	}
}

// TestHallBoundGate pins the hallMinLeft gate: a request the window cannot
// fully serve misses the scalar bound at its first candidate, and the
// kernel computes the reachable bound only when at least hallMinLeft
// candidates are left — never at d = 3 or 4, which keep the plain loop.
func TestHallBoundGate(t *testing.T) {
	const k = 16
	for _, tc := range []struct {
		e, f     int
		sized    int
		computed bool
	}{
		{1, 1, 3, false},
		{1, 2, 4, false},
		{2, 2, 1, true},
	} {
		conv := circular(k, tc.e, tc.f)
		vec := make([]int, k)
		vec[4] = conv.Degree() + 1
		fast, scalar := promotedAndReference(t, conv)
		fres, sres := NewResult(k), NewResult(k)
		fast.Schedule(vec, nil, fres)
		scalar.Schedule(vec, nil, sres)
		s := fast.(*FastBFA)
		if s.sized != tc.sized || (s.hall >= 0) != tc.computed {
			t.Fatalf("d=%d: sized %d, bound %d; want %d sized, bound computed %v",
				conv.Degree(), s.sized, s.hall, tc.sized, tc.computed)
		}
		if !resultsIdentical(fres, sres) {
			t.Fatalf("d=%d: kernel diverged from the scalar reference:\nfast   %+v\nscalar %+v", conv.Degree(), fres, sres)
		}
	}
}

// TestFastKernelsZeroAlloc pins the promoted kernel's steady-state
// Schedule and ScheduleMasked to zero allocations per slot, like the
// scalar schedulers.
func TestFastKernelsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 128
	conv := wavelength.MustNew(wavelength.Circular, k, 4, 4)
	fast, _ := promotedAndReference(t, conv)
	vec, occ, mask := randomMaskedInstance(rng, k)
	res := NewResult(k)
	if allocs := testing.AllocsPerRun(50, func() {
		fast.Schedule(vec, occ, res)
	}); allocs != 0 {
		t.Errorf("%s Schedule: %v allocs/op, want 0", fast.Name(), allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		fast.ScheduleMasked(vec, occ, mask, res)
	}); allocs != 0 {
		t.Errorf("%s ScheduleMasked: %v allocs/op, want 0", fast.Name(), allocs)
	}
}

// TestNewByNameFastKernels covers the constructor wiring used by the
// interconnect, cluster node and command-line flags: "fast" is "exact" on
// every conversion model, and the kernel-specific names resolve to what
// "exact" builds on the model they belong to.
func TestNewByNameFastKernels(t *testing.T) {
	circ := wavelength.MustNew(wavelength.Circular, 16, 2, 1)
	nonc := wavelength.MustNew(wavelength.NonCircular, 16, 2, 1)
	full := wavelength.MustNew(wavelength.Full, 16, 0, 0)
	ring := wavelength.MustNew(wavelength.Circular, 5, 2, 2) // d = k
	for _, tc := range []struct {
		name string
		conv wavelength.Conversion
		want string
	}{
		{"fast", circ, "fast-break-first-available"},
		{"fast", nonc, "first-available"},
		{"fast", full, "full-range"},
		{"fast", ring, "full-range"},
		{"fast-break-first-available", circ, "fast-break-first-available"},
		{"break-first-available", circ, "break-first-available"},
	} {
		s, err := NewByName(tc.name, tc.conv)
		if err != nil {
			t.Fatalf("NewByName(%q, %v): %v", tc.name, tc.conv, err)
		}
		if s.Name() != tc.want {
			t.Fatalf("NewByName(%q, %v).Name() = %q, want %q", tc.name, tc.conv, s.Name(), tc.want)
		}
	}
	for _, conv := range []wavelength.Conversion{circ, nonc, full, ring} {
		exact, err := NewByName("exact", conv)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewByName("fast", conv)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.TypeOf(exact) != reflect.TypeOf(fast) {
			t.Fatalf("%v: exact builds %T, fast builds %T", conv, exact, fast)
		}
		if !BuildsExact("fast", conv) || !BuildsExact("exact", conv) || BuildsExact("shortest-edge", conv) || BuildsExact("bogus", conv) {
			t.Fatalf("%v: BuildsExact misclassifies", conv)
		}
	}
	if BuildsExact("break-first-available", circ) || !BuildsExact("fast-break-first-available", circ) || !BuildsExact("first-available", nonc) {
		t.Fatal("BuildsExact misclassifies the model-specific names")
	}
	if _, err := NewByName("first-available", circ); err == nil {
		t.Fatal("first-available accepted circular conversion")
	}
	if _, err := NewByName("fast-break-first-available", nonc); err == nil {
		t.Fatal("fast-break-first-available accepted non-circular conversion")
	}
}

// The TestParallelBFA* tests hold experiment S9's claim on the kernel that
// realises it: the paper's §IV-B parallel BFA sizes its d breaking
// candidates side by side, which FastBFA does in word lanes instead of d
// hardware units, and must still return the sequential Table 3 Result.

// TestParallelBFAIdenticalToSequential: the word-parallel kernel returns
// the sequential loop's Result — assignment, per-wavelength grants and
// break channel — across small random instances with and without
// occupancy, where the sequential early exit is most often taken.
func TestParallelBFAIdenticalToSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 300; trial++ {
		k := rng.Intn(20) + 2
		e := rng.Intn(k)
		f := rng.Intn(k - e)
		conv := circular(k, e, f)
		par, seq := promotedAndReference(t, conv)
		vec, occ := randomInstance(rng, k, 3, 0.3*float64(trial%2))
		a, b := NewResult(k), NewResult(k)
		seq.Schedule(vec, occ, a)
		par.Schedule(vec, occ, b)
		if !resultsIdentical(a, b) {
			t.Fatalf("%v vec=%v occ=%v: sequential %+v vs word-parallel %+v", conv, vec, occ, a, b)
		}
		if err := Validate(conv, vec, occ, b); err != nil {
			t.Fatalf("%v: %v", conv, err)
		}
	}
}

// TestParallelBFAExhaustiveTieBreak compares full Results on every request
// vector of small universes: among equal-sized candidates the first in
// window order must win, exactly as in the sequential loop.
func TestParallelBFAExhaustiveTieBreak(t *testing.T) {
	for k := 2; k <= 5; k++ {
		for _, reach := range [][2]int{{1, 0}, {0, 1}, {1, 1}} {
			if reach[0]+reach[1]+1 >= k {
				continue
			}
			conv := circular(k, reach[0], reach[1])
			par, seq := promotedAndReference(t, conv)
			a, b := NewResult(k), NewResult(k)
			forEachVector(k, 2, func(vec []int) {
				seq.Schedule(vec, nil, a)
				par.Schedule(vec, nil, b)
				if !resultsIdentical(a, b) {
					t.Fatalf("%v vec=%v: sequential %+v vs word-parallel %+v", conv, vec, a, b)
				}
			})
		}
	}
}

func TestParallelBFAOptimalAgainstBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	conv := circular(12, 2, 2)
	par, _ := promotedAndReference(t, conv)
	base := NewBaseline(conv)
	res, want := NewResult(12), NewResult(12)
	for trial := 0; trial < 200; trial++ {
		vec, occ := randomInstance(rng, 12, 3, 0.2)
		par.Schedule(vec, occ, res)
		base.Schedule(vec, occ, want)
		if res.Size != want.Size {
			t.Fatalf("vec=%v occ=%v: word-parallel %d vs HK %d", vec, occ, res.Size, want.Size)
		}
	}
}

func TestParallelBFAAllOccupied(t *testing.T) {
	par, _ := promotedAndReference(t, circular(6, 1, 1))
	res := NewResult(6)
	occ := []bool{true, true, true, true, true, true}
	par.Schedule([]int{1, 1, 1, 1, 1, 1}, occ, res)
	if res.Size != 0 {
		t.Fatalf("granted %d with everything occupied", res.Size)
	}
}

func TestParallelBFAReuse(t *testing.T) {
	par, _ := promotedAndReference(t, circular(8, 1, 1))
	vec := []int{2, 0, 1, 3, 0, 0, 1, 2}
	r1, r2 := NewResult(8), NewResult(8)
	par.Schedule(vec, nil, r1)
	par.Schedule([]int{0, 0, 0, 0, 0, 0, 0, 0}, nil, r2)
	par.Schedule(vec, nil, r2)
	if !resultsIdentical(r1, r2) {
		t.Fatalf("reuse changed result: %+v vs %+v", r1, r2)
	}
}
