// Tiered-precision bounding: a summary tier under the exact solver.
//
// AttachSummary mirrors a Store into an internal/summary.Store, kept in
// lockstep by observing the same MutationRecord stream the WAL consumes
// (Store.AddCommitHook). Engines carrying the overlay in Options.Summary
// can then answer a query two ways:
//
//   - BoundSummary: a sound-but-loose interval from per-constraint corner
//     bounds, O(dims) whole-domain / O(n·dims) region-restricted, never
//     touching decomposition or LP/MILP.
//   - The exact path, unchanged and bit-identical to an engine without the
//     overlay.
//
// BoundTiered glues them together under an escalation policy (TierSpec): a
// query may carry a width budget; if the summary interval fits the budget
// the answer is served from the summary tier and tagged PrecisionSummary,
// otherwise the engine escalates to the exact path — which still reuses the
// shared scheduler and the decomposition cache's solve memo, so escalated
// cells are solved in parallel and remembered.
package core

import (
	"context"

	"pcbound/internal/domain"
	"pcbound/internal/summary"
)

// Precision tags which tier produced a Range.
type Precision int

const (
	// PrecisionExact: the range came from the exact cell-decomposition
	// solver (bit-identical to the pre-tiering engine).
	PrecisionExact Precision = iota
	// PrecisionSummary: the range is a sound outer interval from the
	// summary tier; it contains the exact range but may be looser.
	PrecisionSummary
)

func (p Precision) String() string {
	if p == PrecisionSummary {
		return "summary"
	}
	return "exact"
}

// TierMode selects the escalation policy for a tiered bound.
type TierMode int

const (
	// TierExact bypasses the summary tier entirely.
	TierExact TierMode = iota
	// TierAuto answers from the summary tier when the loose interval's
	// width fits the budget, and escalates to the exact path otherwise.
	TierAuto
	// TierForceSummary answers from the summary tier whenever it can
	// (regardless of width), escalating only when no summary answer exists
	// (overlay missing, epoch mismatch, unknown attribute…).
	TierForceSummary
)

// TierSpec is a query's tiering request: the mode plus the width budget
// TierAuto compares against. An empty-range summary answer (Lo > Hi) has
// width zero and fits any budget; infinite widths fit only an infinite one.
type TierSpec struct {
	Mode     TierMode
	MaxWidth float64
}

// SummaryOverlay keeps an internal/summary.Store in lockstep with a core
// Store. Attach once per store (typically next to the WAL hook) and share
// the overlay across every engine via Options.Summary; all methods are safe
// for concurrent use.
type SummaryOverlay struct {
	store  *Store
	sum    *summary.Store
	detach func()
}

// AttachSummary builds a summary overlay for the store: it snapshots the
// current constraints and registers a commit observer, atomically under the
// store's lock, so the summaries track every future mutation with no gap.
func AttachSummary(st *Store) *SummaryOverlay {
	ov := &SummaryOverlay{store: st, sum: summary.New(st.Schema())}
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]uint64, len(st.ids))
	cs := make([]summary.Constraint, len(st.pcs))
	for i, pc := range st.pcs {
		ids[i] = uint64(st.ids[i])
		cs[i] = summaryConstraint(pc)
	}
	ov.sum.Reset(ids, cs, st.epoch)
	ov.detach = st.addCommitHookLocked(ov.onCommit)
	return ov
}

// Detach unregisters the overlay's commit observer. The overlay stops
// tracking the store; Eval will fail epoch checks as soon as the store
// moves on. Safe to call more than once.
func (ov *SummaryOverlay) Detach() {
	if ov.detach != nil {
		ov.detach()
		ov.detach = nil
	}
}

// Store returns the core store the overlay tracks.
func (ov *SummaryOverlay) Store() *Store { return ov.store }

// Stats returns the summary store's state and counters.
func (ov *SummaryOverlay) Stats() summary.Stats { return ov.sum.Stats() }

// onCommit applies one committed mutation to the summary store. Called
// synchronously under the core store's write lock (CommitHook contract), so
// summaries and store can never be observed mid-divergence: the summary
// epoch always identifies exactly the constraint multiset it summarizes.
func (ov *SummaryOverlay) onCommit(rec MutationRecord) {
	switch rec.Kind {
	case MutAdd:
		ids := make([]uint64, len(rec.IDs))
		cs := make([]summary.Constraint, len(rec.PCs))
		for i := range rec.PCs {
			ids[i] = uint64(rec.IDs[i])
			cs[i] = summaryConstraint(rec.PCs[i])
		}
		ov.sum.Add(rec.Epoch, ids, cs)
	case MutRemove:
		ov.sum.Remove(rec.Epoch, uint64(rec.IDs[0]))
	case MutReplace:
		ov.sum.Replace(rec.Epoch, uint64(rec.IDs[0]), summaryConstraint(rec.PCs[0]))
	}
}

// summaryConstraint projects a predicate-constraint to its summary: the
// predicate box ψ, the value row ψ∩ν (whose per-attribute corners are
// exactly the clipped value intervals the disjoint fast path assigns its
// cells), and κ as floats.
func summaryConstraint(pc PC) summary.Constraint {
	pred := pc.Pred.Box()
	return summary.Constraint{
		Pred: pred,
		Row:  pred.Intersect(pc.Values),
		KLo:  float64(pc.KLo),
		KHi:  float64(pc.KHi),
	}
}

// BoundSummary answers the query from the summary tier alone: a sound
// outer interval for what Bound would return, computed without touching
// decomposition or the solver. ok=false means no summary answer exists —
// no overlay configured, overlay tracking a different store, summaries not
// at this engine's snapshot epoch (pinned or stale reads must escalate), an
// unknown attribute, or an engine configuration (early-stopped
// decomposition) whose exact answers the summaries do not outer-bound.
func (e *Engine) BoundSummary(q Query) (Range, bool) {
	ov := e.opts.Summary
	if ov == nil || ov.store != e.snap.Store() || e.opts.Cells.EarlyStopLayer != 0 {
		return Range{}, false
	}
	sa, ok := summaryAgg(q.Agg)
	if !ok {
		return Range{}, false
	}
	attr := -1
	if q.Agg != Count {
		i, ok := e.snap.Schema().Index(q.Attr)
		if !ok {
			return Range{}, false
		}
		attr = i
	}
	var wbox domain.Box
	if q.Where != nil {
		wbox = q.Where.Box()
	}
	res, ok := ov.sum.Eval(sa, attr, wbox, e.snap.Epoch())
	if !ok {
		return Range{}, false
	}
	// LoExact/HiExact stay false: summary endpoints are never proven
	// optimal. Cells reports the entries consulted, the tier's analogue of
	// decomposition cells.
	return Range{Lo: res.Lo, Hi: res.Hi, MaybeEmpty: res.MaybeEmpty, Cells: res.Entries}, true
}

func summaryAgg(a Agg) (summary.Agg, bool) {
	switch a {
	case Count:
		return summary.Count, true
	case Sum:
		return summary.Sum, true
	case Avg:
		return summary.Avg, true
	case Min:
		return summary.Min, true
	case Max:
		return summary.Max, true
	default:
		return 0, false
	}
}

// summaryFits decides whether a summary answer satisfies the spec without
// escalation.
func summaryFits(r Range, spec TierSpec) bool {
	switch spec.Mode {
	case TierForceSummary:
		return true
	case TierAuto:
		if r.Lo > r.Hi {
			// Empty range (e.g. provably zero usable rows): width zero.
			return true
		}
		// NaN widths (never-constrained endpoints) fail every comparison
		// and escalate, which is the safe direction.
		return r.Hi-r.Lo <= spec.MaxWidth
	default:
		return false
	}
}

// BoundTiered is BoundTieredCtx with a background context.
func (e *Engine) BoundTiered(q Query, spec TierSpec) (Range, Precision, error) {
	return e.BoundTieredCtx(context.Background(), q, spec)
}

// BoundTieredCtx bounds the query under the tiering policy: it answers from
// the summary tier when spec allows and the loose interval fits, and
// escalates to the exact path (scheduler + solve memo and all) otherwise.
// The returned Precision tags which tier produced the range.
func (e *Engine) BoundTieredCtx(ctx context.Context, q Query, spec TierSpec) (Range, Precision, error) {
	if spec.Mode != TierExact {
		if r, ok := e.BoundSummary(q); ok && summaryFits(r, spec) {
			return r, PrecisionSummary, nil
		}
	}
	r, err := e.BoundCtx(ctx, q)
	return r, PrecisionExact, err
}

// BoundBatchTieredCtx is the batch form of BoundTieredCtx: each query is
// answered from the summary tier when it fits the spec, and the escalated
// remainder runs through BoundBatchCtx as one sub-batch (parallel cell
// solving, shared caches). Results and precisions are in input order.
func (e *Engine) BoundBatchTieredCtx(ctx context.Context, queries []Query, spec TierSpec, opts BatchOptions) ([]Range, []Precision, error) {
	if len(queries) == 0 {
		return nil, nil, nil
	}
	out := make([]Range, len(queries))
	prec := make([]Precision, len(queries))
	var exactQ []Query
	var exactIdx []int
	for i, q := range queries {
		if spec.Mode != TierExact {
			if r, ok := e.BoundSummary(q); ok && summaryFits(r, spec) {
				out[i] = r
				prec[i] = PrecisionSummary
				continue
			}
		}
		exactIdx = append(exactIdx, i)
		exactQ = append(exactQ, q)
	}
	var err error
	if len(exactQ) > 0 {
		var rs []Range
		rs, err = e.BoundBatchCtx(ctx, exactQ, opts)
		for k, i := range exactIdx {
			out[i] = rs[k]
			prec[i] = PrecisionExact
		}
	}
	return out, prec, err
}
