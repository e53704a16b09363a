package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles must be those of Python's statistics.quantiles(xs, n=4),
// because that is what the acceptance procedure computes spreads with.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := Summarize(xs)
	if s.N != 10 || !near(s.Q1, 2.75) || !near(s.Median, 5.5) || !near(s.Q3, 8.25) {
		t.Errorf("1..10: %+v", s)
	}
	if !near(s.IQRShare(), 1) {
		t.Errorf("IQR share %v, want 1", s.IQRShare())
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	s = Summarize([]float64{16, 8, 4, 2, 1})
	if !near(s.Q1, 1.5) || !near(s.Median, 4) || !near(s.Q3, 12) {
		t.Errorf("powers of two: %+v", s)
	}
	if s := Summarize(nil); s.N != 0 || s.Median != 0 || s.IQRShare() != 0 {
		t.Errorf("empty: %+v", s)
	}
}

// Stalls must not move the estimate, which is the whole reason the benchmark
// does not report the mean: with six blocks in ten holding a 4 ms stall the
// median reads the stall, the first quartile still reads the work.
func TestTypicalIgnoresStalledBlocks(t *testing.T) {
	blocks := make([]float64, 1000)
	for i := range blocks {
		blocks[i] = 45
		if i%10 < 6 {
			blocks[i] = 4045
		}
	}
	if v := Typical(blocks); v != 45 {
		t.Errorf("first quartile %v, want 45", v)
	}
	if m := Median(blocks); m != 4045 {
		t.Errorf("median %v: the test no longer shows the case it was written for", m)
	}
	for i := range blocks {
		blocks[i] *= 1.1 // a real slowdown of every block moves it in full
	}
	if v := Typical(blocks); !near(v, 49.5) {
		t.Errorf("first quartile after a 10%% slowdown %v, want 49.5", v)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	uniform := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[n-1-i] = int64(i + 1) // 1..n, descending: Percentile must sort
		}
		return s
	}
	if v, ok := Percentile(uniform(1000), 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990 with exactly ten samples beyond", v, ok)
	}
	if _, ok := Percentile(uniform(999), 99); ok {
		t.Error("p99 of 999 samples reported with nine samples beyond")
	}
	if v, ok := Percentile(uniform(100), 50); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %d, %v", v, ok)
	}
	for _, p := range []float64{0, 100, -1} {
		if _, ok := Percentile(uniform(100), p); ok {
			t.Errorf("p%v reported", p)
		}
	}
	if _, ok := Percentile(nil, 50); ok {
		t.Error("percentile of nothing reported")
	}
}

func TestWorstRatio(t *testing.T) {
	if r := WorstRatio([]float64{100, 104, 96}); !near(r, 104.0/96) {
		t.Errorf("ratio %v", r)
	}
	if r := WorstRatio([]float64{1, 0}); !math.IsInf(r, 1) {
		t.Errorf("ratio with a zero: %v", r)
	}
	if r := WorstRatio(nil); r != 1 {
		t.Errorf("ratio of nothing: %v", r)
	}
}
