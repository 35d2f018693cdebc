package domain

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntervalEmpty(t *testing.T) {
	tests := []struct {
		name string
		iv   Interval
		want bool
	}{
		{"normal", NewInterval(0, 1), false},
		{"point", Point(3), false},
		{"inverted", NewInterval(1, 0), true},
		{"full", Full, false},
		{"neg-point", Point(-7.5), false},
	}
	for _, tt := range tests {
		if got := tt.iv.Empty(); got != tt.want {
			t.Errorf("%s: Empty() = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestIntervalEmptyForIntegral(t *testing.T) {
	tests := []struct {
		iv   Interval
		want bool
	}{
		{NewInterval(0.2, 0.8), true},
		{NewInterval(0.2, 1.0), false},
		{NewInterval(1, 1), false},
		{NewInterval(1.1, 1.9), true},
		{NewInterval(-0.5, 0.5), false},
		{NewInterval(2, 1), true},
	}
	for _, tt := range tests {
		if got := tt.iv.EmptyFor(Integral); got != tt.want {
			t.Errorf("EmptyFor(Integral) on %v = %v, want %v", tt.iv, got, tt.want)
		}
	}
	// Continuous attributes never have lattice holes.
	if NewInterval(0.2, 0.8).EmptyFor(Continuous) {
		t.Error("continuous interval (0.2,0.8) reported empty")
	}
}

func TestIntervalIntersectHull(t *testing.T) {
	a := NewInterval(0, 10)
	b := NewInterval(5, 15)
	got := a.Intersect(b)
	if got.Lo != 5 || got.Hi != 10 {
		t.Errorf("Intersect = %v, want [5,10]", got)
	}
	h := a.Hull(b)
	if h.Lo != 0 || h.Hi != 15 {
		t.Errorf("Hull = %v, want [0,15]", h)
	}
	if !a.Overlaps(b) {
		t.Error("expected overlap")
	}
	c := NewInterval(20, 30)
	if a.Overlaps(c) {
		t.Error("unexpected overlap")
	}
	if !a.Intersect(c).Empty() {
		t.Error("expected empty intersection")
	}
	// Hull with empty operands.
	if h := (Interval{1, 0}).Hull(a); h != a {
		t.Errorf("empty.Hull(a) = %v, want %v", h, a)
	}
	if h := a.Hull(Interval{1, 0}); h != a {
		t.Errorf("a.Hull(empty) = %v, want %v", h, a)
	}
}

func TestIntervalIntersectProperties(t *testing.T) {
	// Intersection is commutative and contained in both operands.
	f := func(a1, a2, b1, b2 float64) bool {
		a := Interval{math.Min(a1, a2), math.Max(a1, a2)}
		b := Interval{math.Min(b1, b2), math.Max(b1, b2)}
		x := a.Intersect(b)
		y := b.Intersect(a)
		if x != y {
			return false
		}
		if x.Empty() {
			return true
		}
		return a.ContainsInterval(x) && b.ContainsInterval(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// quickBox is a Box over overlapsSchema for quick.Check. Endpoints mostly
// come from a small pool, so shared endpoints, empty intervals, integer-free
// intervals such as [1.2, 1.8] and infinite endpoints all occur often.
type quickBox Box

var overlapsSchema = NewSchema(
	Attr{Name: "i", Kind: Integral, Domain: Full},
	Attr{Name: "c", Kind: Continuous, Domain: Full},
	Attr{Name: "j", Kind: Integral, Domain: NewInterval(0, 9)},
)

func (quickBox) Generate(r *rand.Rand, _ int) reflect.Value {
	pool := []float64{math.Inf(-1), -2, -0.5, 0, 0.2, 0.8, 1, 1.2, 1.8, 2, 3.5, math.Inf(1)}
	end := func() float64 {
		if r.Intn(4) == 0 {
			return r.NormFloat64() * 3
		}
		return pool[r.Intn(len(pool))]
	}
	b := make(quickBox, overlapsSchema.Len())
	for i := range b {
		lo, hi := end(), end()
		if lo > hi && r.Intn(8) != 0 {
			lo, hi = hi, lo // keep one interval in sixteen inverted (empty)
		}
		b[i] = Interval{Lo: lo, Hi: hi}
	}
	return reflect.ValueOf(b)
}

func TestBoxOverlapsForProperties(t *testing.T) {
	// OverlapsFor is the lattice-aware emptiness of the intersection, and
	// symmetric. Each kind of outcome must occur for the check to mean
	// anything, including pairs that overlap over the reals only.
	var overlapping, disjoint, realsOnly int
	f := func(qa, qb quickBox) bool {
		a, b := Box(qa), Box(qb)
		want := !a.Intersect(b).EmptyFor(overlapsSchema)
		switch {
		case want:
			overlapping++
		case !a.Intersect(b).Empty():
			realsOnly++
		default:
			disjoint++
		}
		return a.OverlapsFor(b, overlapsSchema) == want && b.OverlapsFor(a, overlapsSchema) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if overlapping < 100 || disjoint < 100 || realsOnly < 100 {
		t.Errorf("generator too lopsided: %d overlapping, %d disjoint, %d overlapping over the reals only",
			overlapping, disjoint, realsOnly)
	}
}

func TestIntervalHullProperties(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		a := Interval{math.Min(a1, a2), math.Max(a1, a2)}
		b := Interval{math.Min(b1, b2), math.Max(b1, b2)}
		h := a.Hull(b)
		return h.ContainsInterval(a) && h.ContainsInterval(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalMidRepresentative(t *testing.T) {
	if m := NewInterval(2, 4).Mid(); m != 3 {
		t.Errorf("Mid = %v, want 3", m)
	}
	if m := Full.Mid(); math.IsInf(m, 0) || math.IsNaN(m) {
		t.Errorf("Mid of Full = %v, want finite", m)
	}
	if m := (Interval{math.Inf(-1), 5}).Mid(); !(m <= 5) || math.IsInf(m, 0) {
		t.Errorf("Mid of (-inf,5] = %v", m)
	}
	if m := (Interval{5, math.Inf(1)}).Mid(); !(m >= 5) || math.IsInf(m, 0) {
		t.Errorf("Mid of [5,inf) = %v", m)
	}
	// Integral representative must land on an integer inside.
	iv := NewInterval(1.2, 3.7)
	r := iv.RepresentativeFor(Integral)
	if r != math.Trunc(r) || !iv.Contains(r) {
		t.Errorf("RepresentativeFor(Integral) = %v, want integer in %v", r, iv)
	}
	iv2 := NewInterval(2.0, 2.9)
	r2 := iv2.RepresentativeFor(Integral)
	if r2 != 2 {
		t.Errorf("RepresentativeFor = %v, want 2", r2)
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Attr{Name: "a", Kind: Continuous, Domain: NewInterval(0, 1)},
		Attr{Name: "b", Kind: Integral, Domain: NewInterval(0, 9)},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i := s.MustIndex("b"); i != 1 {
		t.Errorf("MustIndex(b) = %d", i)
	}
	if _, ok := s.Index("missing"); ok {
		t.Error("Index found missing attribute")
	}
	fb := s.FullBox()
	if len(fb) != 2 || fb[1].Hi != 9 {
		t.Errorf("FullBox = %v", fb)
	}
	names := s.Names()
	if names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
}

func TestSchemaPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate", func() {
		NewSchema(Attr{Name: "x", Domain: Full}, Attr{Name: "x", Domain: Full})
	})
	mustPanic("empty name", func() {
		NewSchema(Attr{Name: "", Domain: Full})
	})
}

func TestBoxOperations(t *testing.T) {
	s := NewSchema(
		Attr{Name: "x", Kind: Continuous, Domain: NewInterval(0, 100)},
		Attr{Name: "y", Kind: Continuous, Domain: NewInterval(0, 100)},
	)
	a := Box{NewInterval(0, 10), NewInterval(0, 10)}
	b := Box{NewInterval(5, 20), NewInterval(5, 20)}
	c := a.Intersect(b)
	want := Box{NewInterval(5, 10), NewInterval(5, 10)}
	for i := range c {
		if c[i] != want[i] {
			t.Errorf("Intersect dim %d = %v, want %v", i, c[i], want[i])
		}
	}
	if c.Empty() {
		t.Error("intersection should be non-empty")
	}
	d := Box{NewInterval(50, 60), NewInterval(0, 10)}
	if a.Overlaps(d) {
		t.Error("unexpected overlap")
	}
	if !a.Contains(Row{5, 5}) || a.Contains(Row{11, 5}) {
		t.Error("Contains misbehaves")
	}
	if !s.FullBox().ContainsBox(a) {
		t.Error("full box should contain a")
	}
	if a.ContainsBox(s.FullBox()) {
		t.Error("a should not contain full box")
	}
	rep := a.Representative(s)
	if !a.Contains(rep) {
		t.Errorf("Representative %v not inside %v", rep, a)
	}
}

func TestBoxContainsBoxEmpty(t *testing.T) {
	a := Box{NewInterval(0, 1)}
	empty := Box{NewInterval(2, 1)}
	if !a.ContainsBox(empty) {
		t.Error("every box contains the empty box")
	}
	if !empty.Empty() {
		t.Error("empty box not reported empty")
	}
}

func TestBoxEmptyForIntegralLattice(t *testing.T) {
	s := NewSchema(Attr{Name: "k", Kind: Integral, Domain: NewInterval(0, 10)})
	b := Box{NewInterval(1.2, 1.8)}
	if !b.EmptyFor(s) {
		t.Error("box with integer-free interval should be empty for integral schema")
	}
	if b.Empty() {
		t.Error("same box is not empty over the reals")
	}
}

func TestBoxIntersectDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	Box{Full}.Intersect(Box{Full, Full})
}

func TestBoxOverlapsForDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	s := NewSchema(Attr{Name: "a", Domain: Full}, Attr{Name: "b", Domain: Full})
	Box{Full, Full}.OverlapsFor(Box{Full}, s)
}

func TestCategories(t *testing.T) {
	c := NewCategories([]string{"Chicago", "New York", "Chicago", "Trenton"})
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", c.Len())
	}
	// Sorted stable codes.
	if c.Code("Chicago") != 0 || c.Code("New York") != 1 || c.Code("Trenton") != 2 {
		t.Errorf("unexpected codes: %d %d %d", c.Code("Chicago"), c.Code("New York"), c.Code("Trenton"))
	}
	if c.Label(1) != "New York" {
		t.Errorf("Label(1) = %q", c.Label(1))
	}
	// Adding a new label extends the domain.
	code := c.Code("Boston")
	if code != 3 || c.Len() != 4 {
		t.Errorf("new code = %d len = %d", code, c.Len())
	}
	d := c.Domain()
	if d.Lo != 0 || d.Hi != 3 {
		t.Errorf("Domain = %v", d)
	}
	if got := c.Label(99); got == "" {
		t.Error("out-of-range label should return placeholder")
	}
}

func TestCategoriesEmptyDomain(t *testing.T) {
	c := NewCategories(nil)
	if !c.Domain().Empty() {
		t.Error("empty categories should have empty domain")
	}
}
