package core

import (
	"runtime"
	"strings"
	"testing"

	"wdmsched/internal/wavelength"
)

func circular(k, e, f int) wavelength.Conversion {
	return wavelength.MustNew(wavelength.Circular, k, e, f)
}

func noncircular(k, e, f int) wavelength.Conversion {
	return wavelength.MustNew(wavelength.NonCircular, k, e, f)
}

func TestResultReset(t *testing.T) {
	r := NewResult(3)
	r.ByOutput[1] = 2
	r.Granted[2] = 1
	r.Size = 1
	r.Reset()
	for b := 0; b < 3; b++ {
		if r.ByOutput[b] != Unassigned || r.Granted[b] != 0 {
			t.Fatal("Reset incomplete")
		}
	}
	if r.Size != 0 {
		t.Fatal("Size not reset")
	}
}

func TestResultCopyFrom(t *testing.T) {
	a := NewResult(2)
	a.ByOutput[0] = 1
	a.Granted[1] = 1
	a.Size = 1
	b := NewResult(2)
	b.CopyFrom(a)
	if b.ByOutput[0] != 1 || b.Granted[1] != 1 || b.Size != 1 {
		t.Fatal("CopyFrom incomplete")
	}
	a.ByOutput[0] = 0
	if b.ByOutput[0] != 1 {
		t.Fatal("CopyFrom aliased")
	}
}

func TestConstructorKindChecks(t *testing.T) {
	if _, err := NewFirstAvailable(circular(6, 1, 1)); err == nil {
		t.Fatal("FA must reject circular")
	}
	if _, err := NewBreakFirstAvailable(noncircular(6, 1, 1)); err == nil {
		t.Fatal("BFA must reject non-circular")
	}
	if _, err := NewShortestEdge(noncircular(6, 1, 1)); err == nil {
		t.Fatal("ShortestEdge must reject non-circular")
	}
	if _, err := NewFullRange(circular(6, 1, 1)); err == nil {
		t.Fatal("FullRange must reject limited range")
	}
	if _, err := NewFullRange(circular(5, 2, 2)); err != nil {
		t.Fatal("FullRange must accept circular d=k")
	}
	if _, err := NewDeltaBreak(circular(6, 1, 1), 0); err == nil {
		t.Fatal("delta 0 accepted")
	}
	if _, err := NewDeltaBreak(circular(6, 1, 1), 4); err == nil {
		t.Fatal("delta > d accepted")
	}
}

func TestNewExactDispatch(t *testing.T) {
	cases := []struct {
		conv wavelength.Conversion
		want string
	}{
		{wavelength.MustNew(wavelength.Full, 6, 0, 0), "full-range"},
		{circular(5, 2, 2), "full-range"}, // d = k
		{noncircular(6, 1, 1), "first-available"},
		// Circular conversion gets the word-parallel Table 3 kernel; the
		// scalar transcription is reachable by name only.
		{circular(6, 1, 1), "fast-break-first-available"},
	}
	for _, tc := range cases {
		s, err := NewExact(tc.conv)
		if err != nil {
			t.Fatalf("%v: %v", tc.conv, err)
		}
		if s.Name() != tc.want {
			t.Fatalf("%v: scheduler %q, want %q", tc.conv, s.Name(), tc.want)
		}
		if s.Conversion() != tc.conv {
			t.Fatalf("%v: Conversion() mismatch", tc.conv)
		}
	}
}

func TestNewByName(t *testing.T) {
	circ := circular(6, 1, 1)
	for _, name := range []string{"exact", "break-first-available", "shortest-edge", "hopcroft-karp", "delta-break(2)"} {
		s, err := NewByName(name, circ)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if name == "delta-break(2)" {
			if db, ok := s.(*DeltaBreak); !ok || db.Delta() != 2 {
				t.Fatalf("%q: wrong scheduler %T", name, s)
			}
		}
	}
	if s, err := NewByName("first-available", noncircular(6, 1, 1)); err != nil || s.Name() != "first-available" {
		t.Fatalf("first-available: %v", err)
	}
	if s, err := NewByName("full-range", wavelength.MustNew(wavelength.Full, 4, 0, 0)); err != nil || s.Name() != "full-range" {
		t.Fatalf("full-range: %v", err)
	}
	if _, err := NewByName("bogus", circ); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := NewByName("first-available", circ); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestSchedulerNames(t *testing.T) {
	circ := circular(6, 1, 1)
	db, _ := NewDeltaBreak(circ, 2)
	if !strings.Contains(db.Name(), "delta-break(2)") {
		t.Fatalf("Name = %q", db.Name())
	}
	if NewBaseline(circ).Name() != "hopcroft-karp" {
		t.Fatal("baseline name")
	}
}

// TestCheckInputPanics: malformed input is a caller bug and panics — with
// the same message from the promoted kernel's fused passes as from
// checkInput in the scalar schedulers.
func TestCheckInputPanics(t *testing.T) {
	fa, _ := NewFirstAvailable(noncircular(4, 1, 1))
	bfa, _ := NewBreakFirstAvailable(circular(4, 1, 1))
	fast, _ := NewFastBFA(circular(4, 1, 1))
	cases := []struct {
		name string
		fn   func(s Scheduler)
	}{
		{"short count", func(s Scheduler) { s.Schedule([]int{1, 2}, nil, NewResult(4)) }},
		{"short occupied", func(s Scheduler) { s.Schedule([]int{0, 0, 0, 0}, []bool{true}, NewResult(4)) }},
		{"negative count", func(s Scheduler) { s.Schedule([]int{0, -1, 0, -2}, nil, NewResult(4)) }},
		{"nil result", func(s Scheduler) { s.Schedule([]int{0, 0, 0, 0}, nil, nil) }},
		{"wrong result size", func(s Scheduler) { s.Schedule([]int{0, 0, 0, 0}, nil, NewResult(3)) }},
	}
	panicOf := func(fn func()) (msg any) {
		defer func() { msg = recover() }()
		fn()
		return nil
	}
	for _, tc := range cases {
		want := panicOf(func() { tc.fn(bfa) })
		if want == nil {
			t.Fatalf("%s: want panic", tc.name)
		}
		for _, s := range []Scheduler{fa, fast} {
			if got := panicOf(func() { tc.fn(s) }); got != want {
				t.Fatalf("%s: %s panicked with %v, %s with %v", tc.name, s.Name(), got, bfa.Name(), want)
			}
		}
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	conv := circular(6, 1, 1)
	count := []int{1, 1, 0, 0, 0, 0}
	occ := []bool{false, true, false, false, false, false}

	good := NewResult(6)
	good.ByOutput[0] = 0
	good.Granted[0] = 1
	good.Size = 1
	if err := Validate(conv, count, occ, good); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}

	mutations := []struct {
		name   string
		mutate func(r *Result)
	}{
		{"occupied channel", func(r *Result) { r.ByOutput[1] = 1; r.Granted[1] = 1; r.Size = 2 }},
		{"not convertible", func(r *Result) { r.ByOutput[3] = 0; r.Granted[0] = 2; r.Size = 2 }},
		{"invalid wavelength", func(r *Result) { r.ByOutput[2] = 9 }},
		{"over-grant", func(r *Result) { r.ByOutput[2] = 1; r.ByOutput[0] = 1; r.Granted[1] = 2; r.Granted[0] = 0; r.Size = 2 }},
		{"granted mismatch", func(r *Result) { r.Granted[0] = 0 }},
		{"size mismatch", func(r *Result) { r.Size = 5 }},
	}
	for _, m := range mutations {
		r := NewResult(6)
		r.CopyFrom(good)
		m.mutate(r)
		if err := Validate(conv, count, occ, r); err == nil {
			t.Errorf("%s: violation not detected", m.name)
		}
	}
	if err := Validate(conv, count, occ, NewResult(5)); err == nil {
		t.Error("wrong-size result not detected")
	}
}

func TestTotalRequests(t *testing.T) {
	if TotalRequests([]int{1, 2, 3}) != 6 || TotalRequests(nil) != 0 {
		t.Fatal("TotalRequests mismatch")
	}
}

func TestFullRangeBasics(t *testing.T) {
	conv := wavelength.MustNew(wavelength.Full, 4, 0, 0)
	s, err := NewFullRange(conv)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResult(4)

	// Fewer requests than channels: grant all.
	s.Schedule([]int{0, 2, 0, 1}, nil, res)
	if res.Size != 3 {
		t.Fatalf("Size = %d, want 3", res.Size)
	}
	if err := Validate(conv, []int{0, 2, 0, 1}, nil, res); err != nil {
		t.Fatal(err)
	}

	// More requests than channels: grant k.
	s.Schedule([]int{3, 3, 3, 3}, nil, res)
	if res.Size != 4 {
		t.Fatalf("Size = %d, want 4", res.Size)
	}

	// Occupancy reduces capacity.
	occ := []bool{true, false, true, false}
	s.Schedule([]int{3, 3, 3, 3}, occ, res)
	if res.Size != 2 {
		t.Fatalf("Size = %d, want 2", res.Size)
	}
	if err := Validate(conv, []int{3, 3, 3, 3}, occ, res); err != nil {
		t.Fatal(err)
	}

	// No requests.
	s.Schedule([]int{0, 0, 0, 0}, nil, res)
	if res.Size != 0 {
		t.Fatalf("Size = %d, want 0", res.Size)
	}
}

// TestSchedulersOwnNoGoroutines: a scheduler is a plain value. Every name
// SchedulerNames advertises, built on each model it accepts and scheduled
// a few times, must leave no goroutine running in this package — there is
// no Close, so anything a scheduler started would leak. Only goroutines in
// this package count, so goroutines that other tests leave behind, or that
// exit during this one, cannot move the result.
func TestSchedulersOwnNoGoroutines(t *testing.T) {
	models := []wavelength.Conversion{
		circular(8, 1, 1),
		noncircular(8, 1, 1),
		wavelength.MustNew(wavelength.Full, 8, 0, 0),
	}
	vecs := [][]int{{1, 0, 2, 0, 0, 1, 0, 0}, {3, 3, 3, 3, 3, 3, 3, 3}, {0, 0, 0, 0, 0, 0, 0, 1}}
	occ := []bool{false, true, false, false, true, false, false, false}
	var live []Scheduler
	for _, name := range SchedulerNames() {
		name = strings.ReplaceAll(name, "<δ>", "1")
		built := 0
		for _, conv := range models {
			s, err := NewByName(name, conv)
			if err != nil {
				continue
			}
			built++
			res := NewResult(conv.K())
			for _, vec := range vecs {
				s.Schedule(vec, nil, res)
				s.Schedule(vec, occ, res)
			}
			live = append(live, s)
		}
		if built == 0 {
			t.Fatalf("advertised scheduler %q builds on no model", name)
		}
	}
	if n := coreGoroutines(); n != 0 {
		t.Fatalf("%d schedulers left %d goroutines running in internal/core, want 0", len(live), n)
	}
	runtime.KeepAlive(live)
}

// coreGoroutines counts the goroutines, other than the caller's, that run
// or were started by code in this package.
func coreGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's own stack comes first; every goroutine's trace is
	// separated from the next by a blank line.
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(g, "\n") {
			line = strings.TrimPrefix(line, "created by ")
			if strings.HasPrefix(line, "wdmsched/internal/core.") {
				count++
				break
			}
		}
	}
	return count
}
