// Package predicate implements the conjunctive predicate language of the
// predicate-constraint framework: Boolean functions over rows built from
// conjunctions of attribute ranges, equalities, and inequalities
// (Section 3.1 of the paper).
//
// Every predicate in this language is geometrically an axis-aligned box over
// the schema domain, which is what makes cell-decomposition satisfiability
// decidable exactly and quickly (see internal/sat).
package predicate

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"pcbound/internal/domain"
)

// P is a conjunctive predicate over a schema. The zero value is not usable;
// construct with True or Builder.
type P struct {
	schema *domain.Schema
	box    domain.Box
	// name is an optional human-readable label used in String output.
	name string
}

// True returns the always-true predicate over the schema (the full box).
func True(s *domain.Schema) *P {
	return &P{schema: s, box: s.FullBox()}
}

// FromBox wraps a box (clipped to the schema domain) as a predicate.
func FromBox(s *domain.Schema, b domain.Box) *P {
	if len(b) != s.Len() {
		panic("predicate: box dimension does not match schema")
	}
	return &P{schema: s, box: s.FullBox().Intersect(b)}
}

// Schema returns the schema the predicate is defined over.
func (p *P) Schema() *domain.Schema { return p.schema }

// Box returns the predicate's box (a copy).
func (p *P) Box() domain.Box { return p.box.Clone() }

// Named returns a copy of the predicate carrying a display name.
func (p *P) Named(name string) *P {
	q := *p
	q.name = name
	return &q
}

// Name returns the display name, if any.
func (p *P) Name() string { return p.name }

// Eval reports whether the row satisfies the predicate.
func (p *P) Eval(r domain.Row) bool { return p.box.Contains(r) }

// IsEmpty reports whether no row of the schema lattice can satisfy the
// predicate.
func (p *P) IsEmpty() bool { return p.box.EmptyFor(p.schema) }

// And returns the conjunction of two predicates over the same schema.
func (p *P) And(q *P) *P {
	if p.schema != q.schema {
		panic("predicate: conjunction across different schemas")
	}
	return &P{schema: p.schema, box: p.box.Intersect(q.box)}
}

// Implies reports whether p ⊆ q as regions (every row satisfying p
// satisfies q).
func (p *P) Implies(q *P) bool { return q.box.ContainsBox(p.box) }

// Overlaps reports whether p ∧ q is satisfiable on the schema lattice: an
// Integral attribute whose two ranges share no integer (e.g. [0, 1.8] and
// [1.2, 4]) makes them disjoint. Both predicates are boxes, so this
// per-dimension test is exact. It allocates nothing.
func (p *P) Overlaps(q *P) bool { return p.box.OverlapsFor(q.box, p.schema) }

// OverlapsBox reports whether p shares a lattice point with the box b (over
// p's schema), without copying either box.
func (p *P) OverlapsBox(b domain.Box) bool { return p.box.OverlapsFor(b, p.schema) }

// IntervalAt returns the constraint interval on the i-th schema attribute,
// without copying the box.
func (p *P) IntervalAt(i int) domain.Interval { return p.box[i] }

// Equal reports whether two predicates denote the same box.
func (p *P) Equal(q *P) bool {
	if p.schema != q.schema {
		return false
	}
	for i := range p.box {
		if p.box[i] != q.box[i] {
			// Two empty boxes denote the same (empty) region.
			if p.box[i].Empty() && q.box[i].Empty() {
				continue
			}
			return false
		}
	}
	return true
}

// Interval returns the constraint interval on the named attribute.
func (p *P) Interval(attr string) domain.Interval {
	return p.box[p.schema.MustIndex(attr)]
}

// Constrained returns the names of attributes the predicate restricts below
// their full domain, in schema order.
func (p *P) Constrained() []string {
	var out []string
	for i := 0; i < p.schema.Len(); i++ {
		if p.box[i] != p.schema.Attr(i).Domain {
			out = append(out, p.schema.Attr(i).Name)
		}
	}
	return out
}

func (p *P) String() string {
	if p.name != "" {
		return p.name
	}
	var parts []string
	for i := 0; i < p.schema.Len(); i++ {
		a := p.schema.Attr(i)
		iv := p.box[i]
		if iv == a.Domain {
			continue
		}
		switch {
		case iv.Empty():
			parts = append(parts, "FALSE")
		case iv.Lo == iv.Hi:
			parts = append(parts, fmt.Sprintf("%s = %g", a.Name, iv.Lo))
		case math.IsInf(iv.Lo, -1) || iv.Lo == a.Domain.Lo:
			parts = append(parts, fmt.Sprintf("%s <= %g", a.Name, iv.Hi))
		case math.IsInf(iv.Hi, 1) || iv.Hi == a.Domain.Hi:
			parts = append(parts, fmt.Sprintf("%s >= %g", a.Name, iv.Lo))
		default:
			parts = append(parts, fmt.Sprintf("%g <= %s <= %g", iv.Lo, a.Name, iv.Hi))
		}
	}
	if len(parts) == 0 {
		return "TRUE"
	}
	return strings.Join(parts, " AND ")
}

// Builder incrementally constructs a conjunctive predicate. Methods return
// the builder for chaining; Build returns the predicate. Conflicting atoms
// intersect (the builder never errors: an unsatisfiable conjunction is a
// legal, empty predicate).
type Builder struct {
	schema *domain.Schema
	box    domain.Box
}

// NewBuilder starts a predicate over the schema with no constraints.
func NewBuilder(s *domain.Schema) *Builder {
	return &Builder{schema: s, box: s.FullBox()}
}

func (b *Builder) at(attr string) int { return b.schema.MustIndex(attr) }

// Range constrains lo <= attr <= hi.
func (b *Builder) Range(attr string, lo, hi float64) *Builder {
	i := b.at(attr)
	b.box[i] = b.box[i].Intersect(domain.NewInterval(lo, hi))
	return b
}

// Eq constrains attr = v.
func (b *Builder) Eq(attr string, v float64) *Builder { return b.Range(attr, v, v) }

// Le constrains attr <= v.
func (b *Builder) Le(attr string, v float64) *Builder {
	return b.Range(attr, math.Inf(-1), v)
}

// Ge constrains attr >= v.
func (b *Builder) Ge(attr string, v float64) *Builder {
	return b.Range(attr, v, math.Inf(1))
}

// Lt constrains attr < v. For Integral attributes this is exact (attr <= v-1
// when v is an integer); for Continuous attributes it is approximated by the
// closed bound attr <= prevAfter(v), which preserves soundness of bounds.
func (b *Builder) Lt(attr string, v float64) *Builder {
	i := b.at(attr)
	var hi float64
	if b.schema.Attr(i).Kind == domain.Integral {
		hi = math.Ceil(v) - 1
	} else {
		hi = math.Nextafter(v, math.Inf(-1))
	}
	return b.Range(attr, math.Inf(-1), hi)
}

// Gt constrains attr > v, dual to Lt.
func (b *Builder) Gt(attr string, v float64) *Builder {
	i := b.at(attr)
	var lo float64
	if b.schema.Attr(i).Kind == domain.Integral {
		lo = math.Floor(v) + 1
	} else {
		lo = math.Nextafter(v, math.Inf(1))
	}
	return b.Range(attr, lo, math.Inf(1))
}

// Build returns the constructed predicate.
func (b *Builder) Build() *P {
	return FromBox(b.schema, b.box)
}

// SortStable sorts predicates by their string form; used to make test output
// and decomposition order deterministic.
func SortStable(ps []*P) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].String() < ps[j].String() })
}
