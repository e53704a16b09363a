// Package wavelength models WDM wavelength channels and limited range
// wavelength conversion as defined in Zhang & Yang, "Distributed Scheduling
// Algorithms for Wavelength Convertible WDM Optical Interconnects"
// (IPDPS 2003), Section II-A.
//
// A fiber carries k wavelengths λ0..λk−1. A limited range wavelength
// converter can shift an incoming wavelength λi to a set of adjacent
// outgoing wavelengths, its adjacency set. The paper considers two shapes of
// adjacency set:
//
//   - Circular symmetrical: λi converts to [i−e, i+f] with indexes taken
//     mod k (Fig. 2(a)). The conversion graph wraps around the ends of the
//     wavelength axis.
//   - Non-circular symmetrical: λi converts to [max(0,i−e), min(k−1,i+f)]
//     (Fig. 2(b)). Wavelengths near one end cannot reach the other end.
//
// The conversion degree d = e+f+1 is the maximum size of an adjacency set.
// Full range conversion is the special case d = k.
package wavelength

import (
	"fmt"
)

// Wavelength is the index of a wavelength channel on a fiber, in [0, k).
type Wavelength int

// String renders the conventional λi notation.
func (w Wavelength) String() string { return fmt.Sprintf("λ%d", int(w)) }

// Kind identifies the shape of a conversion model's adjacency sets.
type Kind int

const (
	// Circular is circular symmetrical conversion: adjacency sets wrap
	// mod k (paper Fig. 2(a)).
	Circular Kind = iota
	// NonCircular is non-circular symmetrical conversion: adjacency sets
	// clamp at wavelengths 0 and k−1 (paper Fig. 2(b)).
	NonCircular
	// Full is full range conversion: every wavelength converts to every
	// other wavelength (d = k). It is represented separately because the
	// paper treats its scheduling as a trivial special case.
	Full
)

// String returns the kind name used in tables and flags.
func (t Kind) String() string {
	switch t {
	case Circular:
		return "circular"
	case NonCircular:
		return "noncircular"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Kind(%d)", int(t))
	}
}

// ParseKind converts a flag/table string produced by Kind.String back into a
// Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "circular":
		return Circular, nil
	case "noncircular", "non-circular":
		return NonCircular, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("wavelength: unknown conversion kind %q", s)
}

// KindNames lists the kind names ParseKind accepts, in Kind order; the
// command-line tools build their -kind help from it.
func KindNames() []string {
	var names []string
	for t := Circular; t <= Full; t++ {
		names = append(names, t.String())
	}
	return names
}

// NewNamed builds the conversion a command line names: kind as ParseKind
// reads it, k wavelengths, and symmetric odd degree d as in NewSymmetric.
// Full range ignores d.
func NewNamed(kind string, k, d int) (Conversion, error) {
	t, err := ParseKind(kind)
	if err != nil {
		return Conversion{}, err
	}
	if t == Full {
		return New(Full, k, 0, 0)
	}
	return NewSymmetric(t, k, d)
}

// Conversion describes one fiber's wavelength conversion capability: the
// number of wavelengths k and, for limited range models, the reach e on the
// minus side and f on the plus side of each wavelength (d = e+f+1).
//
// A Conversion is immutable after construction; it is safe for concurrent
// use by any number of goroutines.
type Conversion struct {
	kind Kind
	k    int
	e, f int
}

// New constructs a limited range conversion model. kind selects circular or
// non-circular clamping; e and f are the minus- and plus-side reaches
// (both ≥ 0, e+f+1 ≤ k). For kind == Full, e and f are ignored and the
// model behaves as e = f = k (every wavelength reaches every other).
func New(kind Kind, k, e, f int) (Conversion, error) {
	if k <= 0 {
		return Conversion{}, fmt.Errorf("wavelength: k must be positive, got %d", k)
	}
	if kind == Full {
		return Conversion{kind: Full, k: k, e: k - 1, f: k - 1}, nil
	}
	if kind != Circular && kind != NonCircular {
		return Conversion{}, fmt.Errorf("wavelength: invalid kind %v", kind)
	}
	if e < 0 || f < 0 {
		return Conversion{}, fmt.Errorf("wavelength: reaches must be non-negative, got e=%d f=%d", e, f)
	}
	if e+f+1 > k {
		return Conversion{}, fmt.Errorf("wavelength: degree e+f+1=%d exceeds k=%d", e+f+1, k)
	}
	return Conversion{kind: kind, k: k, e: e, f: f}, nil
}

// NewSymmetric constructs a limited range conversion with symmetric reach:
// d must be odd (d = 2e+1) so that e = f = (d−1)/2, matching the common
// assumption in the paper's examples (e.g. k = 6, d = 3).
func NewSymmetric(kind Kind, k, d int) (Conversion, error) {
	if d <= 0 || d%2 == 0 {
		return Conversion{}, fmt.Errorf("wavelength: symmetric degree must be odd and positive, got %d", d)
	}
	e := (d - 1) / 2
	return New(kind, k, e, e)
}

// MustNew is New but panics on error; for tests and package-level tables.
func MustNew(kind Kind, k, e, f int) Conversion {
	c, err := New(kind, k, e, f)
	if err != nil {
		panic(err)
	}
	return c
}

// Kind reports the conversion shape.
func (c Conversion) Kind() Kind { return c.kind }

// K reports the number of wavelengths per fiber.
func (c Conversion) K() int { return c.k }

// MinusReach reports e, the reach on the minus side of each wavelength.
func (c Conversion) MinusReach() int { return c.e }

// PlusReach reports f, the reach on the plus side of each wavelength.
func (c Conversion) PlusReach() int { return c.f }

// Degree reports the conversion degree d = e+f+1 (k for full range).
// For non-circular conversion this is the maximum adjacency set size;
// wavelengths near the fiber ends have smaller sets.
func (c Conversion) Degree() int {
	if c.kind == Full {
		return c.k
	}
	return c.e + c.f + 1
}

// IsFullRange reports whether every wavelength can be converted to every
// other wavelength. This holds for Kind Full and also for a Circular model
// whose degree covers the whole ring.
func (c Conversion) IsFullRange() bool {
	if c.kind == Full {
		return true
	}
	if c.kind == Circular {
		return c.e+c.f+1 >= c.k
	}
	// A non-circular model is full range only when both reaches span the
	// whole axis, which New rejects unless k == 1.
	return c.e >= c.k-1 && c.f >= c.k-1 || c.k == 1
}

// Valid reports whether w is a legal wavelength index for this model.
func (c Conversion) Valid(w Wavelength) bool { return int(w) >= 0 && int(w) < c.k }

// Adjacency returns the adjacency set of input wavelength w as an Interval
// over output wavelengths. For circular conversion the interval is modular;
// for non-circular it is a plain clamped range. Full range returns [0, k−1].
func (c Conversion) Adjacency(w Wavelength) Interval {
	i := int(w)
	switch c.kind {
	case Full:
		return Interval{Lo: 0, Hi: c.k - 1, K: c.k, Modular: false}
	case Circular:
		if c.e+c.f+1 >= c.k {
			return Interval{Lo: 0, Hi: c.k - 1, K: c.k, Modular: false}
		}
		return Interval{Lo: i - c.e, Hi: i + c.f, K: c.k, Modular: true}
	default: // NonCircular
		lo := i - c.e
		if lo < 0 {
			lo = 0
		}
		hi := i + c.f
		if hi > c.k-1 {
			hi = c.k - 1
		}
		return Interval{Lo: lo, Hi: hi, K: c.k, Modular: false}
	}
}

// CanConvert reports whether input wavelength from can be converted to
// output wavelength to under this model.
func (c Conversion) CanConvert(from, to Wavelength) bool {
	if !c.Valid(from) || !c.Valid(to) {
		return false
	}
	return c.Adjacency(from).Contains(int(to))
}

// AdjacencySlice returns the adjacency set of w as a sorted-in-ring-order
// slice of output wavelengths (the order the paper uses: minus side first).
// It allocates; hot paths should use Adjacency.
func (c Conversion) AdjacencySlice(w Wavelength) []Wavelength {
	iv := c.Adjacency(w)
	out := make([]Wavelength, 0, iv.Len())
	iv.Each(func(j int) {
		out = append(out, Wavelength(j))
	})
	return out
}

// Delta returns δ(u) as defined in Section IV-C of the paper: the 1-based
// position of output wavelength u within the adjacency set of input
// wavelength w, counted from the minus end. The second return is false if u
// is not in the adjacency set.
func (c Conversion) Delta(w, u Wavelength) (int, bool) {
	iv := c.Adjacency(w)
	if !iv.Contains(int(u)) {
		return 0, false
	}
	pos := 1
	found := 0
	iv.Each(func(j int) {
		if j == int(u) && found == 0 {
			found = pos
		}
		pos++
	})
	return found, true
}

// String summarizes the model, e.g. "circular k=6 d=3 (e=1,f=1)".
func (c Conversion) String() string {
	if c.kind == Full {
		return fmt.Sprintf("full k=%d", c.k)
	}
	return fmt.Sprintf("%s k=%d d=%d (e=%d,f=%d)", c.kind, c.k, c.Degree(), c.e, c.f)
}

// ConversionGraph materializes the conversion graph of Section II-A: the
// bipartite graph with k input wavelengths on the left, k output wavelengths
// on the right, and an edge wherever conversion is possible. Edges returns
// the adjacency lists indexed by input wavelength. It is primarily a test
// and visualization aid; scheduling uses intervals directly.
func (c Conversion) ConversionGraph() [][]Wavelength {
	g := make([][]Wavelength, c.k)
	for i := 0; i < c.k; i++ {
		g[i] = c.AdjacencySlice(Wavelength(i))
	}
	return g
}
