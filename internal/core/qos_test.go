package core

import (
	"math/rand"
	"strings"
	"testing"
)

func TestPrioritySchedulerStrictness(t *testing.T) {
	// The high class must get exactly what it would get scheduled alone:
	// lower classes never influence it.
	rng := rand.New(rand.NewSource(41))
	conv := circular(8, 1, 1)
	ps, err := NewPriorityScheduler(conv)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := NewExact(conv)
	alone := NewResult(8)
	for trial := 0; trial < 200; trial++ {
		high, _ := randomInstance(rng, 8, 2, 0)
		low, _ := randomInstance(rng, 8, 2, 0)
		results := []*Result{NewResult(8), NewResult(8)}
		if err := ps.ScheduleClasses([][]int{high, low}, nil, results); err != nil {
			t.Fatal(err)
		}
		exact.Schedule(high, nil, alone)
		if results[0].Size != alone.Size {
			t.Fatalf("high class got %d with low traffic present, %d alone", results[0].Size, alone.Size)
		}
		// Per-class feasibility.
		if err := Validate(conv, high, nil, results[0]); err != nil {
			t.Fatalf("high class: %v", err)
		}
		// Low class must avoid channels taken by the high class.
		for b, w := range results[1].ByOutput {
			if w != Unassigned && results[0].ByOutput[b] != Unassigned {
				t.Fatalf("channel %d double-granted across classes", b)
			}
		}
	}
}

func TestPrioritySchedulerChannelDisjointUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	conv := noncircular(10, 2, 2)
	ps, err := NewPriorityScheduler(conv)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 100; trial++ {
		classes := [][]int{}
		results := []*Result{}
		nc := rng.Intn(3) + 2
		for c := 0; c < nc; c++ {
			vec, _ := randomInstance(rng, 10, 2, 0)
			classes = append(classes, vec)
			results = append(results, NewResult(10))
		}
		occ := make([]bool, 10)
		for b := range occ {
			occ[b] = rng.Float64() < 0.2
		}
		if err := ps.ScheduleClasses(classes, occ, results); err != nil {
			t.Fatal(err)
		}
		used := make([]int, 10)
		total := 0
		for c, r := range results {
			if err := Validate(conv, classes[c], occ, r); err != nil {
				t.Fatalf("class %d: %v", c, err)
			}
			for b, w := range r.ByOutput {
				if w != Unassigned {
					used[b]++
				}
			}
			total += r.Size
		}
		for b, n := range used {
			if n > 1 {
				t.Fatalf("channel %d granted %d times", b, n)
			}
			if occ[b] && n > 0 {
				t.Fatalf("occupied channel %d granted", b)
			}
		}
		if total != TotalGranted(results) {
			t.Fatal("TotalGranted mismatch")
		}
	}
}

func TestPrioritySchedulerAggregateVsJoint(t *testing.T) {
	// Strict priority can cost aggregate throughput vs scheduling the
	// union jointly, but never gains: the joint maximum matching is an
	// upper bound.
	rng := rand.New(rand.NewSource(47))
	conv := circular(8, 1, 1)
	ps, _ := NewPriorityScheduler(conv)
	exact, _ := NewExact(conv)
	joint := NewResult(8)
	sawCost := false
	for trial := 0; trial < 400; trial++ {
		high, _ := randomInstance(rng, 8, 2, 0)
		low, _ := randomInstance(rng, 8, 2, 0)
		union := make([]int, 8)
		for w := range union {
			union[w] = high[w] + low[w]
		}
		results := []*Result{NewResult(8), NewResult(8)}
		if err := ps.ScheduleClasses([][]int{high, low}, nil, results); err != nil {
			t.Fatal(err)
		}
		exact.Schedule(union, nil, joint)
		total := TotalGranted(results)
		if total > joint.Size {
			t.Fatalf("priority total %d exceeds joint optimum %d", total, joint.Size)
		}
		if total < joint.Size {
			sawCost = true
		}
	}
	if !sawCost {
		t.Log("note: no aggregate cost observed in sample (priority happened to be lossless)")
	}
}

func TestPrioritySchedulerErrors(t *testing.T) {
	conv := circular(6, 1, 1)
	ps, err := NewPriorityScheduler(conv)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Conversion() != conv {
		t.Fatal("Conversion mismatch")
	}
	if !strings.HasPrefix(ps.Name(), "strict-priority(") {
		t.Fatalf("Name = %q", ps.Name())
	}
	vec := []int{1, 0, 0, 0, 0, 0}
	if err := ps.ScheduleClasses([][]int{vec}, nil, nil); err == nil {
		t.Fatal("class/result mismatch accepted")
	}
	if err := ps.ScheduleClasses([][]int{vec}, []bool{true}, []*Result{NewResult(6)}); err == nil {
		t.Fatal("short occupied accepted")
	}
}

func TestPrioritySchedulerEmptyClasses(t *testing.T) {
	conv := circular(6, 1, 1)
	ps, _ := NewPriorityScheduler(conv)
	if err := ps.ScheduleClasses(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	zero := []int{0, 0, 0, 0, 0, 0}
	results := []*Result{NewResult(6)}
	if err := ps.ScheduleClasses([][]int{zero}, nil, results); err != nil {
		t.Fatal(err)
	}
	if results[0].Size != 0 {
		t.Fatal("granted from empty vector")
	}
}

// TestPrioritySchedulerMatchesReferenceInner: strict priority over the
// promoted word-parallel kernel must grant, class by class and byte for
// byte, what it grants over the scalar Table 3 reference — masked and
// with occupancy, at a word-boundary k.
func TestPrioritySchedulerMatchesReferenceInner(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const k, classes = 65, 3
	conv := circular(k, 3, 2)
	ps, err := NewPriorityScheduler(conv)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ps.inner.(*FastBFA); !ok {
		t.Fatalf("priority scheduler runs %T, want the promoted kernel", ps.inner)
	}
	bfa, err := NewBreakFirstAvailable(conv)
	if err != nil {
		t.Fatal(err)
	}
	ref := &PriorityScheduler{conv: conv, inner: bfa, occ: make([]bool, k)}
	for trial := 0; trial < 100; trial++ {
		var counts [][]int
		var got, want []*Result
		var occ []bool
		var mask ChannelMask
		for c := 0; c < classes; c++ {
			vec, o, m := randomMaskedInstance(rng, k)
			counts = append(counts, vec)
			got, want = append(got, NewResult(k)), append(want, NewResult(k))
			occ, mask = o, m
		}
		if err := ps.ScheduleClassesMasked(counts, occ, mask, got); err != nil {
			t.Fatal(err)
		}
		if err := ref.ScheduleClassesMasked(counts, occ, mask, want); err != nil {
			t.Fatal(err)
		}
		for c := range got {
			if !resultsIdentical(got[c], want[c]) {
				t.Fatalf("trial %d class %d: diverged from reference inner:\ngot  %+v\nwant %+v", trial, c, got[c], want[c])
			}
		}
	}
}
