package core

import (
	"testing"

	"wdmsched/internal/wavelength"
)

// maskRNG is a tiny deterministic generator for mask/vector tests (core
// must not depend on internal/traffic).
type maskRNG struct{ s uint64 }

func (r *maskRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *maskRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// randInstance draws a request vector, occupancy and fault mask for k
// wavelengths. occ and mask may come back nil.
func randInstance(r *maskRNG, k int) (vec []int, occ []bool, mask ChannelMask) {
	vec = make([]int, k)
	for w := range vec {
		vec[w] = r.intn(4)
	}
	if r.intn(2) == 1 {
		occ = make([]bool, k)
		for b := range occ {
			occ[b] = r.intn(4) == 0
		}
	}
	if r.intn(4) > 0 {
		mask = make(ChannelMask, k)
		for b := range mask {
			switch r.intn(5) {
			case 0:
				mask[b] = ConverterFailed
			case 1:
				mask[b] = Dark
			}
		}
	}
	return vec, occ, mask
}

// testConversions returns one conversion per scheduler family.
func testConversions(t *testing.T) []wavelength.Conversion {
	t.Helper()
	return []wavelength.Conversion{
		wavelength.MustNew(wavelength.Circular, 8, 1, 1),
		wavelength.MustNew(wavelength.Circular, 9, 2, 1),
		wavelength.MustNew(wavelength.Circular, 5, 0, 0),
		wavelength.MustNew(wavelength.NonCircular, 8, 1, 2),
		wavelength.MustNew(wavelength.NonCircular, 6, 0, 0),
		wavelength.MustNew(wavelength.Full, 7, 0, 0),
	}
}

// exactSchedulers builds every exact scheduler applicable to conv,
// including the scalar Table 3 reference and MultiBreak over all d
// positions for circular models.
func exactSchedulers(t *testing.T, conv wavelength.Conversion) []Scheduler {
	t.Helper()
	ex, err := NewExact(conv)
	if err != nil {
		t.Fatal(err)
	}
	scheds := []Scheduler{ex}
	if conv.Kind() == wavelength.Circular {
		bfa, err := NewBreakFirstAvailable(conv)
		if err != nil {
			t.Fatal(err)
		}
		scheds = append(scheds, bfa)
		if !conv.IsFullRange() {
			deltas := make([]int, conv.Degree())
			for i := range deltas {
				deltas[i] = i + 1
			}
			mb, err := NewMultiBreak(conv, deltas)
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, mb)
		}
	}
	return scheds
}

func resultsIdentical(a, b *Result) bool {
	if a.Size != b.Size || a.BreakChannel != b.BreakChannel {
		return false
	}
	for i := range a.ByOutput {
		if a.ByOutput[i] != b.ByOutput[i] || a.Granted[i] != b.Granted[i] {
			return false
		}
	}
	return true
}

// TestMaskedAllHealthyIdentical: with a nil or all-healthy mask,
// ScheduleMasked must reproduce Schedule bit for bit — the fault layer
// must be invisible when nothing is broken.
func TestMaskedAllHealthyIdentical(t *testing.T) {
	r := &maskRNG{s: 0xfa177}
	for _, conv := range testConversions(t) {
		scheds := exactSchedulers(t, conv)
		scheds = append(scheds, NewBaseline(conv))
		healthy := make(ChannelMask, conv.K())
		for trial := 0; trial < 50; trial++ {
			vec, occ, _ := randInstance(r, conv.K())
			for _, s := range scheds {
				plain, nilMask, healthyMask := NewResult(conv.K()), NewResult(conv.K()), NewResult(conv.K())
				s.Schedule(vec, occ, plain)
				s.ScheduleMasked(vec, occ, nil, nilMask)
				s.ScheduleMasked(vec, occ, healthy, healthyMask)
				if !resultsIdentical(plain, nilMask) {
					t.Fatalf("%v %s vec=%v occ=%v: nil mask diverged: %+v vs %+v",
						conv, s.Name(), vec, occ, plain, nilMask)
				}
				if !resultsIdentical(plain, healthyMask) {
					t.Fatalf("%v %s vec=%v occ=%v: all-healthy mask diverged: %+v vs %+v",
						conv, s.Name(), vec, occ, plain, healthyMask)
				}
			}
		}
	}
}

// TestMaskedAgreesWithDegradedOracle: under random fault masks every exact
// scheduler must stay feasible for the mask and match the size of the
// native degraded Hopcroft–Karp oracle (which narrows adjacency edge by
// edge instead of going through the pre-grant reduction).
func TestMaskedAgreesWithDegradedOracle(t *testing.T) {
	r := &maskRNG{s: 0xdeadf}
	for _, conv := range testConversions(t) {
		scheds := exactSchedulers(t, conv)
		oracle := NewBaseline(conv)
		for trial := 0; trial < 120; trial++ {
			vec, occ, mask := randInstance(r, conv.K())
			want := NewResult(conv.K())
			oracle.ScheduleMasked(vec, occ, mask, want)
			if err := ValidateMasked(conv, vec, occ, mask, want); err != nil {
				t.Fatalf("%v vec=%v occ=%v mask=%v: oracle infeasible: %v", conv, vec, occ, mask, err)
			}
			for _, s := range scheds {
				res := NewResult(conv.K())
				s.ScheduleMasked(vec, occ, mask, res)
				if err := ValidateMasked(conv, vec, occ, mask, res); err != nil {
					t.Fatalf("%v vec=%v occ=%v mask=%v: %s infeasible: %v",
						conv, vec, occ, mask, s.Name(), err)
				}
				if res.Size != want.Size {
					t.Fatalf("%v vec=%v occ=%v mask=%v: %s=%d oracle=%d",
						conv, vec, occ, mask, s.Name(), res.Size, want.Size)
				}
			}
		}
	}
}

// TestDeltaBreakMaskedBound: the Theorem 3 guarantee must hold against the
// optimum of the degraded graph.
func TestDeltaBreakMaskedBound(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 10, 2, 1)
	d := conv.Degree()
	oracle := NewBaseline(conv)
	r := &maskRNG{s: 0xb0071e5}
	for trial := 0; trial < 200; trial++ {
		vec, occ, mask := randInstance(r, conv.K())
		delta := r.intn(d) + 1
		db, err := NewDeltaBreak(conv, delta)
		if err != nil {
			t.Fatal(err)
		}
		res, want := NewResult(conv.K()), NewResult(conv.K())
		db.ScheduleMasked(vec, occ, mask, res)
		oracle.ScheduleMasked(vec, occ, mask, want)
		if err := ValidateMasked(conv, vec, occ, mask, res); err != nil {
			t.Fatalf("vec=%v occ=%v mask=%v δ=%d: infeasible: %v", vec, occ, mask, delta, err)
		}
		bound := delta - 1
		if d-delta > bound {
			bound = d - delta
		}
		if gap := want.Size - res.Size; gap < 0 || gap > bound {
			t.Fatalf("vec=%v occ=%v mask=%v δ=%d: gap %d outside [0,%d]", vec, occ, mask, delta, gap, bound)
		}
	}
}

// TestMaskedDegenerateMasks: an all-dark mask grants nothing; an
// all-converter-failed mask grants exactly one straight-through connection
// per wavelength that has requests.
func TestMaskedDegenerateMasks(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 6, 1, 1)
	sched, err := NewExact(conv)
	if err != nil {
		t.Fatal(err)
	}
	vec := []int{2, 0, 1, 3, 0, 1}
	res := NewResult(conv.K())

	dark := make(ChannelMask, conv.K())
	for b := range dark {
		dark[b] = Dark
	}
	sched.ScheduleMasked(vec, nil, dark, res)
	if res.Size != 0 {
		t.Fatalf("all-dark mask granted %d requests", res.Size)
	}

	failed := make(ChannelMask, conv.K())
	for b := range failed {
		failed[b] = ConverterFailed
	}
	sched.ScheduleMasked(vec, nil, failed, res)
	want := 0
	for _, c := range vec {
		if c > 0 {
			want++
		}
	}
	if res.Size != want {
		t.Fatalf("all-converter-failed mask granted %d, want %d straight-through", res.Size, want)
	}
	for b, w := range res.ByOutput {
		if w != Unassigned && w != b {
			t.Fatalf("converter-failed channel %d granted λ%d", b, w)
		}
	}
}

// TestPrioritySchedulerMasked: strict priority under faults keeps classes
// channel-disjoint and every class mask-feasible.
func TestPrioritySchedulerMasked(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 8, 1, 1)
	prio, err := NewPriorityScheduler(conv)
	if err != nil {
		t.Fatal(err)
	}
	counts := [][]int{{1, 0, 2, 0, 1, 0, 0, 1}, {0, 2, 1, 1, 0, 0, 2, 0}}
	mask := ChannelMask{Healthy, Dark, ConverterFailed, Healthy, Dark, Healthy, ConverterFailed, Healthy}
	results := []*Result{NewResult(conv.K()), NewResult(conv.K())}
	if err := prio.ScheduleClassesMasked(counts, nil, mask, results); err != nil {
		t.Fatal(err)
	}
	used := make([]bool, conv.K())
	for c, res := range results {
		for b, w := range res.ByOutput {
			if w == Unassigned {
				continue
			}
			if used[b] {
				t.Fatalf("channel %d granted to two classes", b)
			}
			used[b] = true
			if mask[b] == Dark {
				t.Fatalf("class %d uses dark channel %d", c, b)
			}
			if mask[b] == ConverterFailed && w != b {
				t.Fatalf("class %d converts on failed channel %d (λ%d)", c, b, w)
			}
		}
	}
}

// TestValidateMaskedRejects: the masked validator must catch fault-rule
// violations that plain Validate accepts.
func TestValidateMaskedRejects(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Circular, 4, 1, 1)
	vec := []int{1, 1, 1, 1}
	res := NewResult(4)
	res.ByOutput[1] = 0 // λ0→b1, legal conversion
	res.Granted[0] = 1
	res.Size = 1
	if err := Validate(conv, vec, nil, res); err != nil {
		t.Fatalf("feasible without mask, got %v", err)
	}
	if err := ValidateMasked(conv, vec, nil, ChannelMask{Healthy, Dark, Healthy, Healthy}, res); err == nil {
		t.Fatal("grant on dark channel accepted")
	}
	if err := ValidateMasked(conv, vec, nil, ChannelMask{Healthy, ConverterFailed, Healthy, Healthy}, res); err == nil {
		t.Fatal("converting grant on converter-failed channel accepted")
	}
	res.ByOutput[1] = 1 // straight through
	res.Granted[0], res.Granted[1] = 0, 1
	if err := ValidateMasked(conv, vec, nil, ChannelMask{Healthy, ConverterFailed, Healthy, Healthy}, res); err != nil {
		t.Fatalf("straight-through grant on converter-failed channel rejected: %v", err)
	}
}
