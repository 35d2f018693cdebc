// Package domain defines the value domain shared by every layer of the
// predicate-constraint framework: attributes, schemas, closed numeric
// intervals, and rows.
//
// The paper ("Fast and Reliable Missing Data Contingency Analysis with
// Predicate-Constraints", SIGMOD 2020) restricts predicates to conjunctions
// of ranges and inequalities over numeric attributes (Section 3.1); we model
// categorical attributes by coding category labels to integers, so every
// attribute domain is an interval of float64s. This keeps satisfiability
// checking exact and cheap (see internal/sat).
package domain

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind describes how an attribute's float64 encoding should be interpreted.
type Kind int

const (
	// Continuous attributes take any real value in their domain.
	Continuous Kind = iota
	// Integral attributes take integer values only (timestamps, counts,
	// category codes). Interval emptiness tests take the integer lattice
	// into account: (0.2, 0.8) is empty for an Integral attribute.
	Integral
)

func (k Kind) String() string {
	switch k {
	case Continuous:
		return "continuous"
	case Integral:
		return "integral"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attr is a named, typed attribute with a bounded domain.
type Attr struct {
	Name string
	Kind Kind
	// Domain is the full range of values the attribute may take. Predicates
	// and value constraints are clipped against it.
	Domain Interval
}

// Schema is an ordered list of attributes. Order matters: rows are stored as
// positional float64 slices.
type Schema struct {
	attrs []Attr
	index map[string]int
}

// NewSchema builds a schema from the given attributes.
// It panics on duplicate attribute names, which are always a programming
// error rather than a data error.
func NewSchema(attrs ...Attr) *Schema {
	s := &Schema{attrs: append([]Attr(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			panic("domain: attribute with empty name")
		}
		if _, dup := s.index[a.Name]; dup {
			panic("domain: duplicate attribute " + a.Name)
		}
		s.index[a.Name] = i
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.attrs) }

// Attr returns the i-th attribute.
func (s *Schema) Attr(i int) Attr { return s.attrs[i] }

// Attrs returns a copy of the attribute list.
func (s *Schema) Attrs() []Attr { return append([]Attr(nil), s.attrs...) }

// Index returns the position of the named attribute and whether it exists.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// MustIndex is Index that panics on unknown names.
func (s *Schema) MustIndex(name string) int {
	i, ok := s.index[name]
	if !ok {
		panic("domain: unknown attribute " + name)
	}
	return i
}

// Names returns the attribute names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		out[i] = a.Name
	}
	return out
}

// FullBox returns the box covering the entire schema domain.
func (s *Schema) FullBox() Box {
	b := make(Box, len(s.attrs))
	for i, a := range s.attrs {
		b[i] = a.Domain
	}
	return b
}

func (s *Schema) String() string {
	var sb strings.Builder
	sb.WriteString("Schema(")
	for i, a := range s.attrs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s:%s%v", a.Name, a.Kind, a.Domain)
	}
	sb.WriteString(")")
	return sb.String()
}

// Row is a tuple positionally aligned with a Schema.
type Row []float64

// Interval is a closed numeric interval [Lo, Hi]. An interval with Lo > Hi
// is empty. Infinite endpoints are allowed.
type Interval struct {
	Lo, Hi float64
}

// Full is the interval covering all of R.
var Full = Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}

// Point returns the degenerate interval [v, v].
func Point(v float64) Interval { return Interval{Lo: v, Hi: v} }

// NewInterval returns [lo, hi].
func NewInterval(lo, hi float64) Interval { return Interval{Lo: lo, Hi: hi} }

// Empty reports whether the interval contains no real point.
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// EmptyFor reports whether the interval contains no point of the attribute
// kind's lattice: for Integral attributes an interval with no integer inside
// is empty even if Lo <= Hi.
func (iv Interval) EmptyFor(k Kind) bool {
	if iv.Empty() {
		return true
	}
	if k == Integral {
		return math.Ceil(iv.Lo) > math.Floor(iv.Hi)
	}
	return false
}

// Contains reports whether v lies in the closed interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// ContainsInterval reports whether other is a subset of iv.
func (iv Interval) ContainsInterval(other Interval) bool {
	if other.Empty() {
		return true
	}
	return iv.Lo <= other.Lo && other.Hi <= iv.Hi
}

// Intersect returns the intersection of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	return Interval{Lo: math.Max(iv.Lo, other.Lo), Hi: math.Min(iv.Hi, other.Hi)}
}

// Overlaps reports whether the two closed intervals share at least one point.
func (iv Interval) Overlaps(other Interval) bool { return !iv.Intersect(other).Empty() }

// Hull returns the smallest interval containing both.
func (iv Interval) Hull(other Interval) Interval {
	if iv.Empty() {
		return other
	}
	if other.Empty() {
		return iv
	}
	return Interval{Lo: math.Min(iv.Lo, other.Lo), Hi: math.Max(iv.Hi, other.Hi)}
}

// Width returns Hi-Lo, or 0 for empty intervals.
func (iv Interval) Width() float64 {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Mid returns the midpoint of the interval; for half-infinite intervals it
// returns a finite representative point.
func (iv Interval) Mid() float64 {
	switch {
	case math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1):
		return 0
	case math.IsInf(iv.Lo, -1):
		return iv.Hi - 1
	case math.IsInf(iv.Hi, 1):
		return iv.Lo + 1
	default:
		return iv.Lo + (iv.Hi-iv.Lo)/2
	}
}

// RepresentativeFor returns a point of the interval on the attribute kind's
// lattice, assuming EmptyFor(k) is false.
func (iv Interval) RepresentativeFor(k Kind) float64 {
	m := iv.Mid()
	if k != Integral {
		return m
	}
	r := math.Round(m)
	if r < iv.Lo {
		r = math.Ceil(iv.Lo)
	}
	if r > iv.Hi {
		r = math.Floor(iv.Hi)
	}
	return r
}

func (iv Interval) String() string {
	if iv.Empty() {
		return "[empty]"
	}
	return fmt.Sprintf("[%g, %g]", iv.Lo, iv.Hi)
}

// Box is an axis-aligned box: one interval per schema attribute, positionally
// aligned. A nil interval set is not allowed; use Full per attribute instead.
type Box []Interval

// Clone returns a deep copy of the box.
func (b Box) Clone() Box { return append(Box(nil), b...) }

// Empty reports whether any dimension is an empty interval.
func (b Box) Empty() bool {
	for _, iv := range b {
		if iv.Empty() {
			return true
		}
	}
	return false
}

// EmptyFor reports emptiness taking attribute kinds from the schema into
// account (integer lattice holes count as empty).
func (b Box) EmptyFor(s *Schema) bool {
	for i, iv := range b {
		if iv.EmptyFor(s.Attr(i).Kind) {
			return true
		}
	}
	return false
}

// Intersect returns the per-dimension intersection of two boxes of equal
// dimensionality.
func (b Box) Intersect(other Box) Box {
	if len(b) != len(other) {
		panic("domain: box dimension mismatch")
	}
	out := make(Box, len(b))
	for i := range b {
		out[i] = b[i].Intersect(other[i])
	}
	return out
}

// Contains reports whether the row lies inside the box.
func (b Box) Contains(r Row) bool {
	for i, iv := range b {
		if !iv.Contains(r[i]) {
			return false
		}
	}
	return true
}

// ContainsBox reports whether other ⊆ b (empty boxes are subsets of
// everything).
func (b Box) ContainsBox(other Box) bool {
	if other.Empty() {
		return true
	}
	for i := range b {
		if !b[i].ContainsInterval(other[i]) {
			return false
		}
	}
	return true
}

// Overlaps reports whether the two boxes share at least one point.
func (b Box) Overlaps(other Box) bool { return !b.Intersect(other).Empty() }

// OverlapsFor reports whether the two boxes share a point of the schema's
// lattice, i.e. !b.Intersect(other).EmptyFor(s). It tests one dimension at a
// time, stops at the first empty one and allocates nothing, so it is the
// overlap test for per-constraint loops.
func (b Box) OverlapsFor(other Box, s *Schema) bool {
	if len(b) != len(other) {
		panic("domain: box dimension mismatch")
	}
	for i := range b {
		if b[i].Intersect(other[i]).EmptyFor(s.attrs[i].Kind) {
			return false
		}
	}
	return true
}

// Representative returns a point inside the box on the schema's lattice,
// assuming the box is non-empty for the schema.
func (b Box) Representative(s *Schema) Row {
	r := make(Row, len(b))
	for i, iv := range b {
		r[i] = iv.RepresentativeFor(s.Attr(i).Kind)
	}
	return r
}

func (b Box) String() string {
	parts := make([]string, len(b))
	for i, iv := range b {
		parts[i] = iv.String()
	}
	return "Box{" + strings.Join(parts, " × ") + "}"
}

// Categories maps string category labels to stable integer codes, so
// categorical attributes (branch names, port codes, device ids) fit the
// numeric predicate language.
type Categories struct {
	codes  map[string]int
	labels []string
}

// NewCategories builds a coder over the given labels, sorted for stability.
func NewCategories(labels []string) *Categories {
	sorted := append([]string(nil), labels...)
	sort.Strings(sorted)
	c := &Categories{codes: make(map[string]int, len(sorted))}
	for _, l := range sorted {
		if _, ok := c.codes[l]; ok {
			continue
		}
		c.codes[l] = len(c.labels)
		c.labels = append(c.labels, l)
	}
	return c
}

// Code returns the integer code for a label, adding it if unseen.
func (c *Categories) Code(label string) int {
	if i, ok := c.codes[label]; ok {
		return i
	}
	c.codes[label] = len(c.labels)
	c.labels = append(c.labels, label)
	return len(c.labels) - 1
}

// Label returns the label for a code.
func (c *Categories) Label(code int) string {
	if code < 0 || code >= len(c.labels) {
		return fmt.Sprintf("<code %d>", code)
	}
	return c.labels[code]
}

// Len returns the number of known categories.
func (c *Categories) Len() int { return len(c.labels) }

// Domain returns the interval of valid codes, suitable for an Integral Attr.
func (c *Categories) Domain() Interval {
	if len(c.labels) == 0 {
		return Interval{Lo: 0, Hi: -1}
	}
	return Interval{Lo: 0, Hi: float64(len(c.labels) - 1)}
}
