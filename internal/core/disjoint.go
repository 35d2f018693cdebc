package core

import (
	"math"

	"pcbound/internal/predicate"
)

// This file implements the greedy fast path for pairwise-disjoint predicate
// sets ("Faster Algorithm in Special Cases", Section 4.2): each predicate is
// its own cell, the MILP degenerates, and every aggregate is answered with a
// linear scan. Figure 8 evaluates this path's scalability.

// djCell is one disjoint predicate clipped to the query region.
type djCell struct {
	u, l     float64 // value bounds for the aggregated attribute
	kLo, kHi float64 // pushdown-adjusted frequency window
}

// disjointCells extracts the per-PC cells overlapping the query. attrIdx < 0
// means no aggregate attribute (COUNT). It is a linear scan that copies no
// box: the per-constraint overlap and containment tests read the predicates
// in place, and only the cells found are allocated.
func (e *Engine) disjointCells(attrIdx int, where *predicate.P) []djCell {
	var out []djCell
	for _, pc := range e.snap.pcs {
		if where == nil {
			if pc.Pred.IsEmpty() {
				continue
			}
		} else if !pc.Pred.Overlaps(where) {
			continue
		}
		c := djCell{kLo: float64(pc.KLo), kHi: float64(pc.KHi)}
		if where != nil && !pc.Pred.Implies(where) {
			// Rows forced by the lower bound may live outside the query
			// region; only the upper bound survives (see decompose).
			c.kLo = 0
		}
		if attrIdx >= 0 {
			region := pc.Pred.IntervalAt(attrIdx)
			if where != nil {
				region = region.Intersect(where.IntervalAt(attrIdx))
			}
			c.u = math.Min(pc.Values[attrIdx].Hi, region.Hi)
			c.l = math.Max(pc.Values[attrIdx].Lo, region.Lo)
			if c.l > c.u {
				// Value constraint conflicts with the region: no row can
				// exist here.
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

func fastCount(cs []djCell) Range {
	r := Range{LoExact: true, HiExact: true, Cells: len(cs)}
	for _, c := range cs {
		r.Lo += c.kLo
		r.Hi += c.kHi
	}
	return r
}

func fastSum(cs []djCell) Range {
	r := Range{LoExact: true, HiExact: true, Cells: len(cs)}
	for _, c := range cs {
		if c.kHi == 0 {
			continue
		}
		// Upper: take as many rows as allowed when the best value is
		// positive, as few as required when it is negative.
		if c.u > 0 {
			r.Hi += c.u * c.kHi
		} else {
			r.Hi += c.u * c.kLo
		}
		if c.l < 0 {
			r.Lo += c.l * c.kHi
		} else {
			r.Lo += c.l * c.kLo
		}
	}
	return r
}

func fastAvg(cs []djCell) Range {
	usable := cs[:0:0]
	for _, c := range cs {
		if c.kHi >= 1 {
			usable = append(usable, c)
		}
	}
	if len(usable) == 0 {
		return emptyRange()
	}
	lo0, hi0 := math.Inf(1), math.Inf(-1)
	mayEmpty := true
	for _, c := range usable {
		lo0 = math.Min(lo0, c.l)
		hi0 = math.Max(hi0, c.u)
		if c.kLo > 0 {
			mayEmpty = false
		}
	}
	r := Range{MaybeEmpty: mayEmpty, Cells: len(usable), LoExact: true, HiExact: true}
	if math.IsInf(hi0, 1) || math.IsInf(lo0, -1) {
		r.Lo, r.Hi = lo0, hi0
		return r
	}
	// g(mid) = max Σ (u_j - mid)·x_j with kLo <= x_j <= kHi, Σx >= 1:
	// greedy per cell because cells are independent.
	gUpper := func(mid float64) bool {
		total, used := 0.0, 0.0
		bestSingle := math.Inf(-1)
		for _, c := range usable {
			d := c.u - mid
			if d > 0 {
				total += d * c.kHi
				used += c.kHi
			} else {
				total += d * c.kLo
				used += c.kLo
			}
			bestSingle = math.Max(bestSingle, d)
		}
		if used == 0 {
			total = bestSingle // forced to place one row somewhere
		}
		return total >= 0
	}
	gLower := func(mid float64) bool {
		total, used := 0.0, 0.0
		bestSingle := math.Inf(1)
		for _, c := range usable {
			d := c.l - mid
			if d < 0 {
				total += d * c.kHi
				used += c.kHi
			} else {
				total += d * c.kLo
				used += c.kLo
			}
			bestSingle = math.Min(bestSingle, d)
		}
		if used == 0 {
			total = bestSingle
		}
		return total <= 0
	}
	r.Hi = binarySearchAvg(lo0, hi0, gUpper, true)
	r.Lo = binarySearchAvg(lo0, hi0, gLower, false)
	return r
}

func fastMinMax(cs []djCell, isMax bool) Range {
	usable := cs[:0:0]
	for _, c := range cs {
		if c.kHi >= 1 {
			usable = append(usable, c)
		}
	}
	if len(usable) == 0 {
		return emptyRange()
	}
	r := Range{Cells: len(usable), LoExact: true, HiExact: true, MaybeEmpty: true}
	var forced []djCell
	for _, c := range usable {
		if c.kLo > 0 {
			forced = append(forced, c)
			r.MaybeEmpty = false
		}
	}
	if isMax {
		r.Hi = math.Inf(-1)
		for _, c := range usable {
			r.Hi = math.Max(r.Hi, c.u)
		}
		if len(forced) > 0 {
			// Forced rows exist; the adversary sets them at their lowest
			// values, so the instance max is at least the largest forced low.
			r.Lo = math.Inf(-1)
			for _, c := range forced {
				r.Lo = math.Max(r.Lo, c.l)
			}
		} else {
			// A single row in the lowest cell minimizes the max.
			r.Lo = math.Inf(1)
			for _, c := range usable {
				r.Lo = math.Min(r.Lo, c.l)
			}
		}
	} else {
		r.Lo = math.Inf(1)
		for _, c := range usable {
			r.Lo = math.Min(r.Lo, c.l)
		}
		if len(forced) > 0 {
			r.Hi = math.Inf(1)
			for _, c := range forced {
				r.Hi = math.Min(r.Hi, c.u)
			}
		} else {
			r.Hi = math.Inf(-1)
			for _, c := range usable {
				r.Hi = math.Max(r.Hi, c.u)
			}
		}
	}
	return r
}
