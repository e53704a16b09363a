package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBinomialPMFBasics(t *testing.T) {
	pmf, err := BinomialPMF(4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}
	for i := range want {
		if math.Abs(pmf[i]-want[i]) > 1e-12 {
			t.Fatalf("pmf[%d] = %v, want %v", i, pmf[i], want[i])
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if _, err := BinomialPMF(-1, 0.5); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := BinomialPMF(3, 1.5); err == nil {
		t.Fatal("p > 1 accepted")
	}
	z, _ := BinomialPMF(3, 0)
	if z[0] != 1 || z[1] != 0 {
		t.Fatal("p=0 pmf wrong")
	}
	o, _ := BinomialPMF(3, 1)
	if o[3] != 1 || o[0] != 0 {
		t.Fatal("p=1 pmf wrong")
	}
	single, _ := BinomialPMF(0, 0.3)
	if len(single) != 1 || single[0] != 1 {
		t.Fatal("n=0 pmf wrong")
	}
}

// Property: pmf sums to 1 and has mean n·p, for a range of n and p.
func TestBinomialPMFNormalizationAndMean(t *testing.T) {
	prop := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw%200) + 1
		p := float64(pRaw) / 65535
		pmf, err := BinomialPMF(n, p)
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pmf {
			sum += v
		}
		return math.Abs(sum-1) < 1e-9 && math.Abs(Mean(pmf)-float64(n)*p) < 1e-6*(1+float64(n))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedOverflowBruteForce(t *testing.T) {
	pmf, _ := BinomialPMF(10, 0.4)
	for c := 0; c <= 10; c++ {
		var want float64
		for x := 0; x <= 10; x++ {
			if x > c {
				want += float64(x-c) * pmf[x]
			}
		}
		if got := ExpectedOverflow(pmf, c); math.Abs(got-want) > 1e-12 {
			t.Fatalf("c=%d: %v vs %v", c, got, want)
		}
	}
	if ExpectedOverflow(pmf, 99) != 0 {
		t.Fatal("overflow beyond support must be 0")
	}
}

func TestFullRangeLossMonotoneInLoad(t *testing.T) {
	prev := -1.0
	for _, load := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		loss, err := FullRangeLoss(8, 16, load)
		if err != nil {
			t.Fatal(err)
		}
		if loss < prev {
			t.Fatalf("loss not monotone at load %v: %v < %v", load, loss, prev)
		}
		if loss < 0 || loss > 1 {
			t.Fatalf("loss %v out of range", loss)
		}
		prev = loss
	}
}

func TestNoConversionLossKnownValue(t *testing.T) {
	// N=2, load=1: X_w ~ Binomial(2, 1/2); E=1, P(X≥1)=3/4 ⇒ loss = 1/4.
	loss, err := NoConversionLoss(2, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-0.25) > 1e-12 {
		t.Fatalf("loss = %v, want 0.25", loss)
	}
}

func TestLossFormulaeValidation(t *testing.T) {
	if _, err := FullRangeLoss(0, 4, 0.5); err == nil {
		t.Fatal("bad shape accepted")
	}
	if _, err := NoConversionLoss(2, 0, 0.5); err == nil {
		t.Fatal("bad shape accepted")
	}
	if _, _, err := LimitedRangeLossBounds(2, 4, 0, 0.5); err == nil {
		t.Fatal("d=0 accepted")
	}
	if _, _, err := LimitedRangeLossBounds(2, 4, 5, 0.5); err == nil {
		t.Fatal("d>k accepted")
	}
	if loss, err := FullRangeLoss(4, 8, 0); err != nil || loss != 0 {
		t.Fatal("zero load must be zero loss")
	}
	if loss, err := NoConversionLoss(4, 8, 0); err != nil || loss != 0 {
		t.Fatal("zero load must be zero loss")
	}
}

func TestBoundsOrderingAndCollapse(t *testing.T) {
	for _, load := range []float64{0.2, 0.5, 0.8, 1.0} {
		lo, hi, err := LimitedRangeLossBounds(8, 16, 3, load)
		if err != nil {
			t.Fatal(err)
		}
		if lo > hi {
			t.Fatalf("bounds inverted at load %v: %v > %v", load, lo, hi)
		}
		lo1, hi1, _ := LimitedRangeLossBounds(8, 16, 1, load)
		if lo1 != hi1 {
			t.Fatalf("d=1 bounds must collapse, got %v %v", lo1, hi1)
		}
		lok, hik, _ := LimitedRangeLossBounds(8, 16, 16, load)
		if lok != hik {
			t.Fatalf("d=k bounds must collapse, got %v %v", lok, hik)
		}
	}
}

func TestErlangB(t *testing.T) {
	// Classic reference values.
	cases := []struct {
		c    int
		a    float64
		want float64
	}{
		{1, 1, 0.5},
		{2, 1, 1.0 / 5},  // a²/2 / (1+a+a²/2) = 0.5/2.5
		{0, 3, 1},        // no servers: everything blocked
		{10, 0, 0},       // no load: nothing blocked
		{5, 2, 0.036697}, // standard table value
	}
	for _, tc := range cases {
		got, err := ErlangB(tc.c, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tc.want) > 1e-4 {
			t.Fatalf("ErlangB(%d,%v) = %v, want %v", tc.c, tc.a, got, tc.want)
		}
	}
	if _, err := ErlangB(-1, 1); err == nil {
		t.Fatal("negative servers accepted")
	}
	if _, err := ErlangB(1, -1); err == nil {
		t.Fatal("negative load accepted")
	}
}

// Property: Erlang-B decreases in c and increases in a.
func TestErlangBMonotone(t *testing.T) {
	for _, a := range []float64{0.5, 2, 8} {
		prev := 1.1
		for c := 0; c <= 20; c++ {
			b, err := ErlangB(c, a)
			if err != nil {
				t.Fatal(err)
			}
			if b > prev+1e-12 {
				t.Fatalf("ErlangB not decreasing in c at (c=%d, a=%v)", c, a)
			}
			prev = b
		}
	}
	prev := -1.0
	for _, a := range []float64{0, 1, 2, 4, 8, 16} {
		b, _ := ErlangB(8, a)
		if b < prev {
			t.Fatalf("ErlangB not increasing in a at a=%v", a)
		}
		prev = b
	}
}

// TestFullRangeLossMatchesMonteCarloMoment sanity-checks the binomial
// machinery against a direct enumeration at a small size.
func TestFullRangeLossMatchesEnumeration(t *testing.T) {
	// N=2, k=2, load p. X ~ Binomial(4, p/2); loss = E[(X−2)^+]/E[X].
	p := 0.9
	pmf, _ := BinomialPMF(4, p/2)
	want := (1*pmf[3] + 2*pmf[4]) / (4 * p / 2)
	got, err := FullRangeLoss(2, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("loss %v, want %v", got, want)
	}
}
