package fabric

import (
	"math/rand"
	"reflect"
	"testing"
)

// wordBoundarySizes are the bit widths the word-parallel kernels must get
// right: one below, at, and above each of the first two word boundaries.
var wordBoundarySizes = []int{1, 7, 63, 64, 65, 127, 128, 129, 200}

// checkCanonicalTail fails the test if any bit at position ≥ Len is set in
// the backing words — the invariant every bulk operation must preserve.
func checkCanonicalTail(t *testing.T, v *BitVector) {
	t.Helper()
	if len(v.words) == 0 {
		return
	}
	if ghost := v.words[len(v.words)-1] &^ v.tailMask(); ghost != 0 {
		t.Fatalf("n=%d: ghost bits %#x beyond Len in last word", v.n, ghost)
	}
}

// refBits mirrors a BitVector as a plain []bool for differential checks.
func toBools(v *BitVector) []bool {
	out := make([]bool, v.Len())
	for i := range out {
		out[i] = v.Get(i)
	}
	return out
}

func TestBitVectorCanonicalTail(t *testing.T) {
	for _, n := range wordBoundarySizes {
		v := NewBitVector(n)
		v.Fill()
		checkCanonicalTail(t, v)
		if got := v.Count(); got != n {
			t.Fatalf("n=%d: Count after Fill = %d", n, got)
		}
		v.SetRange(0, n+100) // clamped
		checkCanonicalTail(t, v)
		if got := v.Count(); got != n {
			t.Fatalf("n=%d: Count after SetRange overshoot = %d", n, got)
		}
		if got := v.NextSet(n - 1); got != n-1 {
			t.Fatalf("n=%d: NextSet(n-1) = %d", n, got)
		}
		if got := v.NextSet(n); got != -1 {
			t.Fatalf("n=%d: NextSet(n) = %d, want -1 (no ghost channel)", n, got)
		}
		o := NewBitVector(n)
		o.Fill()
		v.AndNot(o)
		checkCanonicalTail(t, v)
		if got := v.Count(); got != 0 {
			t.Fatalf("n=%d: Count after AndNot all = %d", n, got)
		}
		// Rotation into a full destination must not spill past Len.
		o.Fill()
		dst := NewBitVector(n)
		o.ShiftRangeInto(dst, 0, n-1, 0)
		o.ShiftRangeInto(dst, 0, n-1, 1)
		o.ShiftRangeInto(dst, 0, n-1, -1)
		checkCanonicalTail(t, dst)
	}
}

func TestBitVectorRangeOpsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range wordBoundarySizes {
		v := NewBitVector(n)
		ref := make([]bool, n)
		for trial := 0; trial < 200; trial++ {
			lo, hi := rng.Intn(n), rng.Intn(n)
			switch trial % 3 {
			case 0:
				v.SetRange(lo, hi)
				for i := lo; i <= hi; i++ {
					ref[i] = true
				}
			case 1:
				v.ClearRange(lo, hi)
				for i := lo; i <= hi; i++ {
					ref[i] = false
				}
			case 2:
				i := rng.Intn(n)
				v.Set(i)
				ref[i] = true
			}
			checkCanonicalTail(t, v)
			if got := toBools(v); !reflect.DeepEqual(got, ref) {
				t.Fatalf("n=%d trial %d: bits diverged from reference", n, trial)
			}
			// CountRange/NextSet against the reference.
			if lo <= hi {
				want := 0
				for i := lo; i <= hi; i++ {
					if ref[i] {
						want++
					}
				}
				if got := v.CountRange(lo, hi); got != want {
					t.Fatalf("n=%d: CountRange(%d,%d) = %d, want %d", n, lo, hi, got, want)
				}
			}
			from := rng.Intn(n + 2)
			want := -1
			for i := from; i < n; i++ {
				if ref[i] {
					want = i
					break
				}
			}
			if got := v.NextSet(from); got != want {
				t.Fatalf("n=%d: NextSet(%d) = %d, want %d", n, from, got, want)
			}
		}
	}
}

func TestBitVectorWordOps(t *testing.T) {
	a := NewBitVector(130)
	b := NewBitVector(130)
	for _, i := range []int{0, 5, 63, 64, 100, 129} {
		a.Set(i)
	}
	for _, i := range []int{5, 64, 128} {
		b.Set(i)
	}
	c := NewBitVector(130)
	c.CopyFrom(a)
	c.AndNot(b)
	var got []int
	c.ForEach(func(i int) { got = append(got, i) })
	if want := []int{0, 63, 100, 129}; !reflect.DeepEqual(got, want) {
		t.Fatalf("AndNot bits = %v, want %v", got, want)
	}
	c.CopyFrom(a)
	c.And(b)
	if got, want := c.Count(), 2; got != want {
		t.Fatalf("And count = %d, want %d", got, want)
	}
	c.Or(a)
	if got, want := c.Count(), a.Count(); got != want {
		t.Fatalf("Or count = %d, want %d", got, want)
	}
	if w := a.Words(); w != 3 {
		t.Fatalf("Words() = %d, want 3", w)
	}
	if a.Word(0)&1 == 0 || a.Word(1)&1 == 0 {
		t.Fatal("Word() does not expose the packed layout")
	}
}

func TestShiftRangeIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range wordBoundarySizes {
		src := NewBitVector(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				src.Set(i)
			}
		}
		for trial := 0; trial < 100; trial++ {
			lo, hi := rng.Intn(n), rng.Intn(n)
			delta := rng.Intn(2*n+1) - n
			dst := NewBitVector(n)
			pre := rng.Intn(n)
			dst.Set(pre) // ShiftRangeInto must OR, not overwrite
			ref := make([]bool, n)
			ref[pre] = true
			for i := lo; i <= hi && i < n; i++ {
				if j := i + delta; src.Get(i) && j >= 0 && j < n {
					ref[j] = true
				}
			}
			src.ShiftRangeInto(dst, lo, hi, delta)
			checkCanonicalTail(t, dst)
			if got := toBools(dst); !reflect.DeepEqual(got, ref) {
				t.Fatalf("n=%d: ShiftRangeInto(lo=%d hi=%d delta=%d) diverged", n, lo, hi, delta)
			}
		}
	}
}

// TestRequestersStridedScan cross-checks the word-masked strided Requesters
// against a per-bit reference over randomized shapes, including k values
// around and above the word size.
func TestRequestersStridedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, shape := range []struct{ n, k int }{
		{1, 1}, {3, 5}, {8, 16}, {16, 63}, {16, 64}, {16, 65}, {5, 128}, {64, 7},
	} {
		r := NewRequestRegister(shape.n, shape.k)
		marked := map[[2]int]bool{}
		for i := 0; i < shape.n*shape.k/3+1; i++ {
			in, w := rng.Intn(shape.n), rng.Intn(shape.k)
			if !marked[[2]int{in, w}] {
				r.Mark(in, w)
				marked[[2]int{in, w}] = true
			}
		}
		for w := 0; w < shape.k; w++ {
			var want []int
			for in := 0; in < shape.n; in++ {
				if marked[[2]int{in, w}] {
					want = append(want, in)
				}
			}
			got := r.Requesters(w, nil)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("N=%d k=%d: Requesters(%d) = %v, want %v", shape.n, shape.k, w, got, want)
			}
		}
	}
}

func TestRequestersPanicsOutOfRange(t *testing.T) {
	r := NewRequestRegister(4, 8)
	for _, w := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Requesters(%d) did not panic", w)
				}
			}()
			r.Requesters(w, nil)
		}()
	}
}

// BenchmarkRequesters pins the strided word-masked scan: the old
// implementation issued one bounds-checked Get per fiber; the rewrite
// skips whole zero words. Sparse is the common case (most fibers idle on a
// given wavelength), dense the worst case.
func BenchmarkRequesters(b *testing.B) {
	for _, bc := range []struct {
		name    string
		n, k    int
		density float64
	}{
		{"N=64,k=64,sparse", 64, 64, 0.05},
		{"N=64,k=64,dense", 64, 64, 0.8},
		{"N=256,k=128,sparse", 256, 128, 0.02},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRequestRegister(bc.n, bc.k)
			rng := rand.New(rand.NewSource(1))
			for in := 0; in < bc.n; in++ {
				for w := 0; w < bc.k; w++ {
					if rng.Float64() < bc.density {
						r.Mark(in, w)
					}
				}
			}
			dst := make([]int, 0, bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < bc.k; w++ {
					dst = r.Requesters(w, dst[:0])
				}
			}
		})
	}
}
