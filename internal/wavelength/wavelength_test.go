package wavelength

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name    string
		kind    Kind
		k, e, f int
		wantErr bool
	}{
		{"ok circular", Circular, 6, 1, 1, false},
		{"ok noncircular", NonCircular, 6, 1, 1, false},
		{"ok asymmetric", Circular, 8, 0, 2, false},
		{"ok degree equals k", Circular, 5, 2, 2, false},
		{"zero k", Circular, 0, 1, 1, true},
		{"negative k", Circular, -3, 1, 1, true},
		{"negative e", Circular, 6, -1, 1, true},
		{"negative f", NonCircular, 6, 1, -1, true},
		{"degree exceeds k", Circular, 4, 2, 2, true},
		{"bad kind", Kind(42), 6, 1, 1, true},
		{"full ignores reaches", Full, 6, -5, 99, false},
		{"k=1 degree 1", Circular, 1, 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.kind, tc.k, tc.e, tc.f)
			if (err != nil) != tc.wantErr {
				t.Fatalf("New(%v,%d,%d,%d) error = %v, wantErr %v", tc.kind, tc.k, tc.e, tc.f, err, tc.wantErr)
			}
		})
	}
}

func TestNewSymmetric(t *testing.T) {
	c, err := NewSymmetric(Circular, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.MinusReach() != 1 || c.PlusReach() != 1 || c.Degree() != 3 {
		t.Fatalf("got e=%d f=%d d=%d, want 1 1 3", c.MinusReach(), c.PlusReach(), c.Degree())
	}
	if _, err := NewSymmetric(Circular, 6, 4); err == nil {
		t.Fatal("even degree should be rejected")
	}
	if _, err := NewSymmetric(Circular, 6, -1); err == nil {
		t.Fatal("negative degree should be rejected")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid input")
		}
	}()
	MustNew(Circular, 0, 0, 0)
}

// TestFigure2Circular reproduces the paper's Fig. 2(a): k = 6, d = 3
// circular symmetrical conversion, where λi converts to
// {λ(i−1) mod 6, λi, λ(i+1) mod 6}.
func TestFigure2Circular(t *testing.T) {
	c := MustNew(Circular, 6, 1, 1)
	want := [][]Wavelength{
		{5, 0, 1},
		{0, 1, 2},
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 5},
		{4, 5, 0},
	}
	got := c.ConversionGraph()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conversion graph mismatch:\n got %v\nwant %v", got, want)
	}
}

// TestFigure2NonCircular reproduces Fig. 2(b): k = 6, e = f = 1 non-circular
// conversion, where λ0 reaches only {λ0, λ1} and λ5 only {λ4, λ5}.
func TestFigure2NonCircular(t *testing.T) {
	c := MustNew(NonCircular, 6, 1, 1)
	want := [][]Wavelength{
		{0, 1},
		{0, 1, 2},
		{1, 2, 3},
		{2, 3, 4},
		{3, 4, 5},
		{4, 5},
	}
	got := c.ConversionGraph()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conversion graph mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestFullRange(t *testing.T) {
	c := MustNew(Full, 4, 0, 0)
	if !c.IsFullRange() {
		t.Fatal("Full kind must report full range")
	}
	if c.Degree() != 4 {
		t.Fatalf("full range degree = %d, want k = 4", c.Degree())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if !c.CanConvert(Wavelength(i), Wavelength(j)) {
				t.Fatalf("full range must convert %d→%d", i, j)
			}
		}
	}
}

func TestCircularFullDegreeIsFullRange(t *testing.T) {
	c := MustNew(Circular, 5, 2, 2) // d = 5 = k
	if !c.IsFullRange() {
		t.Fatal("circular with d = k must be full range")
	}
	adj := c.Adjacency(0)
	if adj.Len() != 5 {
		t.Fatalf("adjacency length = %d, want 5", adj.Len())
	}
}

func TestAdjacencyClampingNonCircular(t *testing.T) {
	c := MustNew(NonCircular, 8, 2, 1)
	cases := []struct {
		w      Wavelength
		lo, hi int
	}{
		{0, 0, 1},
		{1, 0, 2},
		{2, 0, 3},
		{3, 1, 4},
		{6, 4, 7},
		{7, 5, 7},
	}
	for _, tc := range cases {
		iv := c.Adjacency(tc.w)
		if iv.First() != tc.lo || iv.Last() != tc.hi {
			t.Errorf("Adjacency(%v) = [%d,%d], want [%d,%d]", tc.w, iv.First(), iv.Last(), tc.lo, tc.hi)
		}
		if iv.Modular {
			t.Errorf("non-circular adjacency must not be modular")
		}
	}
}

func TestCanConvertOutOfRange(t *testing.T) {
	c := MustNew(Circular, 6, 1, 1)
	if c.CanConvert(-1, 0) || c.CanConvert(0, 6) || c.CanConvert(6, 0) {
		t.Fatal("out-of-range wavelengths must not convert")
	}
}

func TestDelta(t *testing.T) {
	// Paper Section IV-C: adjacency set of λi is
	// {W(i)−e, …, W(i), …, W(i)+f}; δ(u) is u's 1-based position counted
	// from the minus end. For e=f=1, u = i−1 ⇒ δ=1, u = i ⇒ δ=2, u = i+1
	// ⇒ δ=3.
	c := MustNew(Circular, 6, 1, 1)
	cases := []struct {
		w, u  Wavelength
		delta int
		ok    bool
	}{
		{2, 1, 1, true},
		{2, 2, 2, true},
		{2, 3, 3, true},
		{0, 5, 1, true}, // wraps
		{0, 0, 2, true},
		{0, 1, 3, true},
		{2, 4, 0, false},
		{2, 0, 0, false},
	}
	for _, tc := range cases {
		d, ok := c.Delta(tc.w, tc.u)
		if d != tc.delta || ok != tc.ok {
			t.Errorf("Delta(%v,%v) = (%d,%v), want (%d,%v)", tc.w, tc.u, d, ok, tc.delta, tc.ok)
		}
	}
}

func TestDeltaAsymmetric(t *testing.T) {
	c := MustNew(NonCircular, 10, 2, 1) // adjacency of λ5 = [3,6]
	for i, u := range []Wavelength{3, 4, 5, 6} {
		d, ok := c.Delta(5, u)
		if !ok || d != i+1 {
			t.Errorf("Delta(5,%v) = (%d,%v), want (%d,true)", u, d, ok, i+1)
		}
	}
}

func TestKindString(t *testing.T) {
	if Circular.String() != "circular" || NonCircular.String() != "noncircular" || Full.String() != "full" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string mismatch")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Circular, NonCircular, Full} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = (%v,%v)", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind must reject unknown strings")
	}
	if k, err := ParseKind("non-circular"); err != nil || k != NonCircular {
		t.Fatal("ParseKind must accept hyphenated alias")
	}
}

func TestNewNamed(t *testing.T) {
	for _, name := range KindNames() {
		if _, err := ParseKind(name); err != nil {
			t.Fatalf("KindNames lists %q, ParseKind rejects it: %v", name, err)
		}
	}
	c, err := NewNamed("noncircular", 8, 3)
	if err != nil || c != MustNew(NonCircular, 8, 1, 1) {
		t.Fatalf("NewNamed(noncircular, 8, 3) = %v, %v", c, err)
	}
	// Full range ignores the degree, even one NewSymmetric would reject.
	c, err = NewNamed("full", 8, 2)
	if err != nil || c != MustNew(Full, 8, 0, 0) {
		t.Fatalf("NewNamed(full, 8, 2) = %v, %v", c, err)
	}
	for _, bad := range [][2]any{{"circular", 2}, {"bogus", 3}, {"none", 3}} {
		if _, err := NewNamed(bad[0].(string), 8, bad[1].(int)); err == nil {
			t.Errorf("NewNamed(%v, 8, %v) accepted", bad[0], bad[1])
		}
	}
}

func TestConversionString(t *testing.T) {
	c := MustNew(Circular, 6, 1, 1)
	if got := c.String(); got != "circular k=6 d=3 (e=1,f=1)" {
		t.Fatalf("String() = %q", got)
	}
	fc := MustNew(Full, 6, 0, 0)
	if got := fc.String(); got != "full k=6" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: for circular conversion, every adjacency set has exactly d
// members and is symmetric under rotation: Adjacency(w+1) is Adjacency(w)
// shifted by one.
func TestCircularAdjacencyRotationInvariance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	prop := func(kRaw, eRaw, fRaw uint8) bool {
		k := int(kRaw%12) + 1
		e := int(eRaw) % k
		f := int(fRaw) % k
		if e+f+1 >= k {
			// Skip invalid combinations and the whole-ring case, where
			// every adjacency set is the identical interval [0, k−1] and
			// the shifted-order comparison below does not apply.
			return true
		}
		c := MustNew(Circular, k, e, f)
		for w := 0; w < k; w++ {
			a := c.AdjacencySlice(Wavelength(w))
			b := c.AdjacencySlice(Wavelength((w + 1) % k))
			if len(a) != c.Degree() || len(b) != c.Degree() {
				return false
			}
			for i := range a {
				if (int(a[i])+1)%k != int(b[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: CanConvert(w,u) ⟺ u ∈ AdjacencySlice(w), for all kinds.
func TestCanConvertMatchesAdjacency(t *testing.T) {
	kinds := []Kind{Circular, NonCircular, Full}
	for _, kind := range kinds {
		for k := 1; k <= 9; k++ {
			for e := 0; e < k; e++ {
				for f := 0; e+f+1 <= k; f++ {
					c := MustNew(kind, k, e, f)
					for w := 0; w < k; w++ {
						inSet := make(map[Wavelength]bool)
						for _, u := range c.AdjacencySlice(Wavelength(w)) {
							inSet[u] = true
						}
						for u := 0; u < k; u++ {
							if c.CanConvert(Wavelength(w), Wavelength(u)) != inSet[Wavelength(u)] {
								t.Fatalf("%v: CanConvert(%d,%d) disagrees with adjacency", c, w, u)
							}
						}
					}
					if kind == Full {
						break // e,f ignored
					}
				}
				if kind == Full {
					break
				}
			}
		}
	}
}

// Property: non-circular adjacency sets are monotone in the sense the
// First Available proof needs (paper Theorem 1): j ≤ l implies
// BEGIN(j) ≤ BEGIN(l) and END(j) ≤ END(l).
func TestNonCircularMonotonicity(t *testing.T) {
	for k := 1; k <= 10; k++ {
		for e := 0; e < k; e++ {
			for f := 0; e+f+1 <= k; f++ {
				c := MustNew(NonCircular, k, e, f)
				for w := 1; w < k; w++ {
					prev := c.Adjacency(Wavelength(w - 1))
					cur := c.Adjacency(Wavelength(w))
					if prev.First() > cur.First() || prev.Last() > cur.Last() {
						t.Fatalf("%v: adjacency not monotone at w=%d: %v then %v", c, w, prev, cur)
					}
				}
			}
		}
	}
}

func TestWavelengthString(t *testing.T) {
	if Wavelength(3).String() != "λ3" {
		t.Fatalf("got %q", Wavelength(3).String())
	}
}
