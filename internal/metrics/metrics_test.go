package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
	var d Counter
	d.Add(10)
	if got := c.Ratio(&d); got != 0.5 {
		t.Fatalf("Ratio = %v", got)
	}
	var zero Counter
	if c.Ratio(&zero) != 0 {
		t.Fatal("Ratio by zero must be 0")
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Observe(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", w.Mean())
	}
	// Sample variance of that classic dataset is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("Variance = %v", w.Variance())
	}
	if w.CI95() <= 0 {
		t.Fatal("CI95 must be positive with n ≥ 2")
	}
	w.Reset()
	if w.N() != 0 {
		t.Fatal("Reset failed")
	}
}

// Property: Welford matches the naive two-pass mean/variance.
func TestWelfordMatchesNaive(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, v := range raw {
			w.Observe(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		var m2 float64
		for _, v := range raw {
			d := float64(v) - mean
			m2 += d * d
		}
		naiveVar := m2 / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Variance()-naiveVar) < 1e-4*(1+naiveVar)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 2, 7} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Bucket(1) != 2 || h.Overflow() != 1 {
		t.Fatalf("histogram state wrong: count=%d b1=%d over=%d", h.Count(), h.Bucket(1), h.Overflow())
	}
	if h.Bucket(-1) != 0 || h.Bucket(9) != 0 {
		t.Fatal("out-of-range Bucket must be 0")
	}
	if math.Abs(h.Mean()-11.0/5) > 1e-12 {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Quantile(0.5) != 1 {
		t.Fatalf("median = %d", h.Quantile(0.5))
	}
	if h.Quantile(0.99) != 5 { // falls into overflow → max+1
		t.Fatalf("p99 = %d", h.Quantile(0.99))
	}
	empty := NewHistogram(2)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatal("empty histogram quantile/mean")
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative max":         func() { NewHistogram(-1) },
		"negative observation": func() { NewHistogram(2).Observe(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestJain(t *testing.T) {
	if Jain(nil) != 1 {
		t.Fatal("empty shares must be 1")
	}
	if Jain([]float64{0, 0}) != 1 {
		t.Fatal("all-zero shares must be 1")
	}
	if got := Jain([]float64{1, 1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("uniform Jain = %v", got)
	}
	if got := Jain([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("degenerate Jain = %v", got)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "loss"}
	s.Add(0.9, 0.1)
	s.AddErr(0.5, 0.01, 0.002)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.X[1] != 0.5 || s.Y[1] != 0.01 || s.YErr[1] != 0.002 || s.YErr[0] != 0 {
		t.Fatalf("AddErr misaligned the error column: %+v", s)
	}
	if !strings.Contains(s.String(), "loss:") {
		t.Fatal("String missing name")
	}
}

func TestTableASCIIAndCSV(t *testing.T) {
	tb := NewTable("demo", "alg", "size")
	tb.AddRow("bfa", "6")
	tb.AddRowf("fa", 5.5)
	tb.AddNote("k=%d", 6)
	out := tb.ASCII()
	for _, want := range []string{"== demo ==", "alg", "bfa", "5.5", "note: k=6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ASCII missing %q in:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "alg,size\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	tb2 := NewTable("q", "a")
	tb2.AddRow(`x,"y"`)
	if !strings.Contains(tb2.CSV(), `"x,""y"""`) {
		t.Fatalf("CSV quoting wrong: %s", tb2.CSV())
	}
}

func TestTableRowWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewTable("t", "a", "b").AddRow("only one")
}

func TestSeriesTable(t *testing.T) {
	a := &Series{Name: "d=2", XLabel: "load"}
	a.Add(0.5, 0.01)
	a.Add(0.9, 0.1)
	b := &Series{Name: "d=3"}
	b.AddErr(0.5, 0.005, 0.001)
	b.AddErr(0.9, 0.05, 0.004)
	tb, err := SeriesTable("fig", a, b)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.ASCII()
	for _, want := range []string{"load", "d=2", "d=3", "±0.001"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	short := &Series{Name: "broken"}
	short.Add(1, 1)
	if _, err := SeriesTable("bad", a, short); err == nil {
		t.Fatal("mismatched series lengths accepted")
	}
	empty, err := SeriesTable("none")
	if err != nil || len(empty.Header) != 1 {
		t.Fatal("empty SeriesTable wrong")
	}
}
