package core

import "pcbound/internal/predicate"

// GroupResult is one group's hard range in a GROUP BY query.
type GroupResult struct {
	Group *predicate.P
	Range Range
}

// GroupBy answers a GROUP BY query as a union of per-group queries
// (Section 2: "GROUP-BY clause can be considered as a union of such queries
// without GROUP-BY"). Each group predicate is conjoined with the query's
// own predicate. Groups whose region cannot contain missing rows still get
// a result (a zero/empty range), so callers can render every group.
//
// Each group's bound routes through the engine's shared scheduler (its cell
// solves fan out instead of serializing) and through the decomposition
// cache, whose solve memo serves a group region bounded before. Results are
// bit-identical to bounding each group on a fresh sequential engine.
func (e *Engine) GroupBy(q Query, groups []*predicate.P) ([]GroupResult, error) {
	out := make([]GroupResult, 0, len(groups))
	for _, g := range groups {
		gq := q
		if q.Where == nil {
			gq.Where = g
		} else {
			gq.Where = q.Where.And(g)
		}
		r, err := e.Bound(gq)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupResult{Group: g, Range: r})
	}
	return out, nil
}
