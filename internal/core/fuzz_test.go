package core

import (
	"slices"
	"testing"

	"wdmsched/internal/wavelength"
)

// indexOracle is a counting sort of res.ByOutput, independent of the
// schedulers' index code: runs at the prefix sums of Granted, filled by
// one ascending pass over ByOutput. It returns each wavelength's granted
// channels, ascending.
func indexOracle(res *Result) [][]int {
	k := len(res.ByOutput)
	off := make([]int, k+1)
	for w := 0; w < k; w++ {
		off[w+1] = off[w] + res.Granted[w]
	}
	buf, pos := make([]int, off[k]), slices.Clone(off[:k])
	for b, w := range res.ByOutput {
		if w != Unassigned {
			buf[pos[w]] = b
			pos[w]++
		}
	}
	runs := make([][]int, k)
	for w := range runs {
		runs[w] = buf[off[w]:off[w+1]]
	}
	return runs
}

// checkIndex fails t unless res's channel index (Channels) holds exactly
// the channels the counting-sort oracle derives from ByOutput.
func checkIndex(t testing.TB, label string, res *Result) {
	t.Helper()
	for w, want := range indexOracle(res) {
		if got := res.Channels(w); !slices.Equal(got, want) {
			t.Fatalf("%s: wavelength %d channel index %v, oracle %v (ByOutput %v)",
				label, w, got, want, res.ByOutput)
		}
	}
}

// decodeInstance turns fuzzer bytes into a valid scheduling instance:
// conversion shape, request vector, occupancy mask and fault mask (both
// masks optional, selected by flag bits). A first byte below 128 selects
// k ≤ 16; the upper half reaches k = 64, one word, where request bands can
// outgrow their windows. It returns ok=false for degenerate inputs.
func decodeInstance(data []byte) (k, e, f int, vec []int, occ []bool, mask ChannelMask, ok bool) {
	if len(data) < 4 {
		return 0, 0, 0, nil, nil, nil, false
	}
	k = int(data[0])%16 + 1
	if data[0] >= 128 {
		k = int(data[0])%64 + 1
	}
	e = int(data[1]) % k
	f = int(data[2]) % (k - e)
	useOcc := data[3]&1 == 1
	useMask := data[3]&2 == 2
	data = data[4:]
	vec = make([]int, k)
	for w := 0; w < k && w < len(data); w++ {
		vec[w] = int(data[w]) % 5
	}
	if useOcc {
		occ = make([]bool, k)
		for b := 0; b < k; b++ {
			if b+k < len(data) {
				occ[b] = data[b+k]&1 == 1
			}
		}
	}
	if useMask {
		mask = make(ChannelMask, k)
		for b := 0; b < k; b++ {
			if b+2*k < len(data) {
				mask[b] = ChannelState(data[b+2*k] % 3)
			}
		}
	}
	return k, e, f, vec, occ, mask, true
}

// fusedPassSeeds are decodeInstance encodings of the inputs the promoted
// kernel's fused pack passes and kept winner rotation could get wrong, as
// far as k ≤ 16 reaches (fast_test.go covers k = 63/64/65): the all-zero
// vector with and without occupancy, every channel occupied, every channel
// dark, and d = k−1 with one request per wavelength.
var fusedPassSeeds = [][]byte{
	{15, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	{7, 2, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0},
	{7, 1, 1, 1, 1, 2, 3, 4, 1, 2, 3, 4, 1, 1, 1, 1, 1, 1, 1, 1},
	{7, 1, 1, 2, 1, 2, 3, 4, 1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2},
	{7, 3, 3, 0, 1, 1, 1, 1, 1, 1, 1, 1},
	{15, 7, 7, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0},
}

// hotBandSeed is a decodeInstance encoding of a k=64, d=17 hot band: 4
// requests on each of λ0…λ7, 32 requests that reach only 24 channels, so
// the kernel's reachable-channel bound binds where the scalar
// min(requests, free channels) never does. With occupied, every third
// channel is occupied.
func hotBandSeed(occupied bool) []byte {
	const k = 64
	data := make([]byte, 4+2*k)
	data[0], data[1], data[2] = 128+k-1, 8, 8
	for w := 0; w < 8; w++ {
		data[4+w] = 4
	}
	if occupied {
		data[3] = 1
		for b := 0; b < k; b += 3 {
			data[4+k+b] = 1
		}
	}
	return data
}

// FuzzExactSchedulers feeds arbitrary instances — optionally with fault
// masks — to the exact scheduler of both conversion kinds and checks
// feasibility plus agreement with the Hopcroft–Karp oracle on the same
// (possibly degraded) instance. On circular conversion NewExact is the
// word-parallel kernel, which must additionally reproduce the scalar
// Table 3 reference byte for byte, BreakChannel, faults and occupancy
// included, and its reachable-channel bound must lie between the maximum
// matching and min(requests, free channels) of the instance it schedules.
func FuzzExactSchedulers(f *testing.F) {
	f.Add([]byte{6, 1, 1, 0, 2, 1, 0, 1, 1, 2})
	f.Add([]byte{8, 2, 1, 1, 3, 0, 0, 4, 0, 1, 2, 0, 1, 1, 0, 1, 0, 1, 0, 1})
	f.Add([]byte{1, 0, 0, 0, 4})
	f.Add([]byte{16, 7, 8, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{6, 1, 1, 2, 2, 1, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{8, 2, 1, 3, 3, 0, 0, 4, 0, 1, 2, 0, 1, 1, 0, 1, 0, 1, 0, 1, 2, 2, 1, 1, 0, 0, 2, 1})
	for _, seed := range fusedPassSeeds {
		f.Add(seed)
	}
	f.Add(hotBandSeed(false))
	f.Add(hotBandSeed(true))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, e, ff, vec, occ, mask, ok := decodeInstance(data)
		if !ok {
			return
		}
		for _, kind := range []wavelength.Kind{wavelength.Circular, wavelength.NonCircular} {
			conv, err := wavelength.New(kind, k, e, ff)
			if err != nil {
				t.Fatalf("decoded invalid conversion: %v", err)
			}
			sched, err := NewExact(conv)
			if err != nil {
				t.Fatal(err)
			}
			res, want := NewResult(k), NewResult(k)
			sched.ScheduleMasked(vec, occ, mask, res)
			if err := ValidateMasked(conv, vec, occ, mask, res); err != nil {
				t.Fatalf("%v vec=%v occ=%v mask=%v: infeasible: %v", conv, vec, occ, mask, err)
			}
			checkIndex(t, sched.Name()+" masked", res)
			NewBaseline(conv).ScheduleMasked(vec, occ, mask, want)
			checkIndex(t, "hopcroft-karp", want)
			if res.Size != want.Size {
				t.Fatalf("%v vec=%v occ=%v mask=%v: %s=%d HK=%d",
					conv, vec, occ, mask, sched.Name(), res.Size, want.Size)
			}
			if kind != wavelength.Circular {
				continue
			}
			ref, err := NewBreakFirstAvailable(conv)
			if err != nil {
				t.Fatal(err)
			}
			rres := NewResult(k)
			ref.ScheduleMasked(vec, occ, mask, rres)
			checkIndex(t, ref.Name()+" masked", rres)
			if !resultsIdentical(res, rres) {
				t.Fatalf("%v vec=%v occ=%v mask=%v: %s diverged from %s:\nfast   %+v\nscalar %+v",
					conv, vec, occ, mask, sched.Name(), ref.Name(), res, rres)
			}
			// The plain entry point, on a Result still holding the masked
			// slot's grants.
			sched.Schedule(vec, occ, res)
			ref.Schedule(vec, occ, rres)
			checkIndex(t, sched.Name(), res)
			checkIndex(t, ref.Name(), rres)
			if !resultsIdentical(res, rres) {
				t.Fatalf("%v vec=%v occ=%v: %s diverged from %s on the maskless path:\nfast   %+v\nscalar %+v",
					conv, vec, occ, sched.Name(), ref.Name(), res, rres)
			}
			checkHallBound(t, conv, vec, occ, mask)
		}
	})
}

// checkHallBound fails t unless the kernel's reachable-channel bound on the
// instance it schedules for (vec, occ, mask) — the residual one left after
// the mask's pre-grants — is at least that instance's Hopcroft–Karp size
// and at most min(requests, free channels), and counts exactly the free
// channels the oracle finds inside some request's window.
func checkHallBound(t *testing.T, conv wavelength.Conversion, vec []int, occ []bool, mask ChannelMask) {
	t.Helper()
	s, err := NewFastBFA(conv)
	if err != nil {
		t.Fatal(err)
	}
	cnt, free := s.mask.apply(vec, occ, mask)
	hall, plain := hallBound(s, cnt, free)
	hk := NewResult(conv.K())
	NewBaseline(conv).Schedule(cnt, free, hk)
	if hall < hk.Size || hall > plain {
		t.Fatalf("%v vec=%v occ=%v mask=%v: reachable bound %d outside [HK %d, %d]",
			conv, vec, occ, mask, hall, hk.Size, plain)
	}
	if want := min(TotalRequests(cnt), reachableOracle(conv, cnt, free)); hall != want {
		t.Fatalf("%v vec=%v occ=%v mask=%v: reachable bound %d, oracle %d", conv, vec, occ, mask, hall, want)
	}
}

// FuzzCircularSchedulersAgree feeds arbitrary circular instances — with
// random occupancy and fault masks — to every exact circular scheduler:
// sequential Break-and-First-Available, MultiBreak trying all d breaking
// positions, and the word-parallel kernel NewExact builds. All must produce
// feasible assignments whose size matches the Hopcroft–Karp oracle on the
// same (possibly degraded) instance, and the kernel's Result must equal the
// scalar reference's byte for byte.
func FuzzCircularSchedulersAgree(f *testing.F) {
	f.Add([]byte{6, 1, 1, 1, 2, 1, 0, 1, 1, 2, 0, 1, 0, 1, 1, 0})
	f.Add([]byte{8, 2, 1, 0, 3, 0, 0, 4, 0, 1, 2, 0})
	f.Add([]byte{12, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 0})
	f.Add([]byte{1, 0, 0, 0, 4})
	f.Add([]byte{6, 1, 1, 2, 2, 1, 0, 1, 1, 2, 0, 0, 0, 0, 0, 0, 2, 0, 1, 0, 2, 1})
	f.Add([]byte{8, 2, 1, 3, 3, 0, 0, 4, 0, 1, 2, 0, 1, 1, 0, 1, 0, 1, 0, 1, 1, 2, 0, 0, 2, 1, 1, 0})
	for _, seed := range fusedPassSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k, e, ff, vec, occ, mask, ok := decodeInstance(data)
		if !ok {
			return
		}
		conv, err := wavelength.New(wavelength.Circular, k, e, ff)
		if err != nil {
			t.Fatalf("decoded invalid conversion: %v", err)
		}
		want := NewResult(k)
		NewBaseline(conv).ScheduleMasked(vec, occ, mask, want)

		bfa, err := NewBreakFirstAvailable(conv)
		if err != nil {
			t.Fatal(err)
		}
		deltas := make([]int, conv.Degree())
		for i := range deltas {
			deltas[i] = i + 1
		}
		mb, err := NewMultiBreak(conv, deltas)
		if err != nil {
			t.Fatal(err)
		}
		// The promoted kernel, as every default path constructs it (the
		// trivial FullRange scheduler when d spans the ring).
		fast, err := NewExact(conv)
		if err != nil {
			t.Fatal(err)
		}
		res := NewResult(k)
		for _, s := range []Scheduler{bfa, mb, fast} {
			s.ScheduleMasked(vec, occ, mask, res)
			if err := ValidateMasked(conv, vec, occ, mask, res); err != nil {
				t.Fatalf("%v vec=%v occ=%v mask=%v: %s infeasible: %v", conv, vec, occ, mask, s.Name(), err)
			}
			if res.Size != want.Size {
				t.Fatalf("%v vec=%v occ=%v mask=%v: %s=%d HK=%d",
					conv, vec, occ, mask, s.Name(), res.Size, want.Size)
			}
			checkIndex(t, s.Name()+" masked", res)
			s.Schedule(vec, occ, res)
			checkIndex(t, s.Name(), res)
		}
		// Byte-identical agreement — assignment, per-wavelength grants and
		// BreakChannel — between the promoted kernel and the scalar
		// reference, beyond the size agreement checked above.
		sres, fres := NewResult(k), NewResult(k)
		bfa.ScheduleMasked(vec, occ, mask, sres)
		fast.ScheduleMasked(vec, occ, mask, fres)
		if !resultsIdentical(fres, sres) {
			t.Fatalf("%v vec=%v occ=%v mask=%v: fast BFA diverged:\nfast   %+v\nscalar %+v",
				conv, vec, occ, mask, fres, sres)
		}
	})
}

// FuzzDeltaBreakBound checks the Theorem 3 bound on arbitrary circular
// instances (without occupancy, as the theorem is stated).
func FuzzDeltaBreakBound(f *testing.F) {
	f.Add([]byte{8, 1, 1, 0, 2, 1, 0, 1, 1, 2, 3, 1})
	f.Add([]byte{12, 2, 2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		k, e, ff, vec, _, _, ok := decodeInstance(data)
		if !ok {
			return
		}
		conv, err := wavelength.New(wavelength.Circular, k, e, ff)
		if err != nil || conv.IsFullRange() {
			return
		}
		d := conv.Degree()
		delta := 1
		if len(data) > 0 {
			delta = int(data[len(data)-1])%d + 1
		}
		db, err := NewDeltaBreak(conv, delta)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewBreakFirstAvailable(conv)
		if err != nil {
			t.Fatal(err)
		}
		res, opt := NewResult(k), NewResult(k)
		db.Schedule(vec, nil, res)
		exact.Schedule(vec, nil, opt)
		bound := delta - 1
		if d-delta > bound {
			bound = d - delta
		}
		if gap := opt.Size - res.Size; gap < 0 || gap > bound {
			t.Fatalf("%v vec=%v δ=%d: gap %d outside [0,%d]", conv, vec, delta, gap, bound)
		}
	})
}
