package core

import (
	"math"
	"slices"
	"sort"

	"pcbound/internal/milp"
	"pcbound/internal/predicate"
	"pcbound/internal/sched"
)

// This file computes the five aggregate bounds over a cell decomposition.
// Since the intra-query parallelism rework, the unit of solver work is a
// *cell solve task*, not a query: per-cell feasibility checks, the two
// directional MILPs, AVG's bisection searches, and MIN/MAX threshold probes
// are routed through a cellRunner, which dispatches them on the engine's
// shared cost-ordered scheduler (internal/sched) and consults the solve memo
// of the cached decomposition (epochcache.go) first. Every task writes an
// index-addressed slot and every reduction below runs in fixed cell order,
// so results are bit-identical to the sequential path at any parallelism —
// the differential tests in intraquery_test.go pin exactly that.

// emptyRange is the range of an aggregate with no possible value (no rows
// can exist in the query region). Lo > Hi so Contains is always false.
func emptyRange() Range {
	return Range{Lo: math.Inf(1), Hi: math.Inf(-1), MaybeEmpty: true, LoExact: true, HiExact: true}
}

func (e *Engine) useFast() bool {
	return !e.opts.DisableFastPath && e.snap.Disjoint() &&
		e.opts.Cells.EarlyStopLayer == 0
}

// cellRunner coordinates one query's cell-level solve tasks: scheduling,
// memoization, and caller-side deterministic reduction. It is cheap to build
// (no allocation beyond the struct) and lives for one aggregate call.
type cellRunner struct {
	e     *Engine
	cp    *cellProblem
	memo  *solveMemo // nil: nothing is memoized
	sc    *solveCtx
	mopts milp.Options
}

func (e *Engine) newRunner(cp *cellProblem, memo *solveMemo, sc *solveCtx) cellRunner {
	return cellRunner{e: e, cp: cp, memo: memo, sc: sc, mopts: e.milpOpts()}
}

// lookup consults the solve memo, counting the lookup on the cache.
func (r *cellRunner) lookup(k memoKey) (solveResult, bool) {
	if r.memo == nil {
		return solveResult{}, false
	}
	v, ok := r.memo.get(k)
	if ok {
		r.e.cache.memoHits.Add(1)
	} else {
		r.e.cache.memoMisses.Add(1)
	}
	return v, ok
}

// remember stores a solved task's result in the solve memo.
func (r *cellRunner) remember(k memoKey, v solveResult) {
	if r.memo != nil {
		r.memo.put(k, v)
	}
}

// seq reports whether tasks run inline on the caller (the sequential
// reference path: Options.SequentialCells or Options.Reference).
func (r *cellRunner) seq() bool { return r.e.sched == nil }

// taskCtx returns the solve context for a scheduler workspace, creating a
// worker-local one on first use. Solve contexts carry no constraint- or
// engine-derived state, so one context serves tasks from any engine, and
// which context runs a solve never changes its result bits.
func taskCtx(ws *sched.Workspace) *solveCtx {
	if sc, ok := ws.Local.(*solveCtx); ok {
		return sc
	}
	sc := &solveCtx{}
	ws.Local = sc
	return sc
}

// callerWS wraps the caller's own solve context as its helping workspace.
func (r *cellRunner) callerWS() *sched.Workspace {
	return &sched.Workspace{Local: r.sc}
}

// cellCost estimates a per-cell task's MILP heaviness for skew-aware
// dispatch: cells active in more constraints couple more rows into the
// solve and branch deeper. Costs only order dispatch; they never affect
// results.
func (cp *cellProblem) cellCost(i int) float64 {
	return float64(1 + len(cp.cells[i].Active))
}

// problemCost is the dispatch cost of a whole-problem solve.
func (cp *cellProblem) problemCost() float64 {
	return float64(1 + len(cp.cells) + len(cp.consIdx))
}

// cellFeas fills out[i], for every i in idx, with "cell i may host at least
// one row". Without an active frequency lower bound the LP has only ≤ rows,
// so the single row x = e_i is feasible exactly when every active constraint
// allows one, capHi[i] >= 1, and no solve is needed; the reference path
// still solves, as a differential oracle. Coupled problems solve one MILP
// per cell (feasible with minOne=i) as memoized, scheduled tasks. out is
// index-addressed, so callers reduce deterministically whatever the
// completion order.
func (r *cellRunner) cellFeas(idx []int, out []bool) {
	e, cp := r.e, r.cp
	if !cp.coupled && !e.opts.Reference {
		for _, i := range idx {
			out[i] = cp.capHi[i] >= 1
		}
		return
	}
	miss := idx
	if r.memo != nil {
		miss = make([]int, 0, len(idx))
		for _, i := range idx {
			if v, ok := r.lookup(memoKey{task: memoReach, cell: i}); ok {
				out[i] = v.feasible
				continue
			}
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		return
	}
	run := func(sc *solveCtx, i int) { out[i] = cp.feasible(sc, nil, false, i, r.mopts) }
	if r.seq() || len(miss) == 1 {
		for _, i := range miss {
			run(r.sc, i)
		}
	} else {
		g := e.sched.NewGroup()
		for _, i := range miss {
			i := i
			g.Submit(cp.cellCost(i), func(ws *sched.Workspace) { run(taskCtx(ws), i) })
		}
		g.Wait(r.callerWS())
	}
	for _, i := range miss {
		r.remember(memoKey{task: memoReach, cell: i}, solveResult{feasible: out[i]})
	}
}

// probFeas is the whole-problem feasibility check (can any allocation
// satisfy the constraints, optionally with at least one row), memoized.
func (r *cellRunner) probFeas(atLeastOne bool) bool {
	k := memoKey{task: memoFeasible, up: atLeastOne}
	if v, ok := r.lookup(k); ok {
		return v.feasible
	}
	ok := r.cp.feasible(r.sc, nil, atLeastOne, -1, r.mopts)
	r.remember(k, solveResult{feasible: ok})
	return ok
}

// solvePair runs the two directional whole-problem MILPs (maximize objHi,
// minimize objLo) as concurrent tasks, memoized under task (memoCount or
// memoSum) and the attribute shaping the objectives.
func (r *cellRunner) solvePair(task memoTask, attr string, objHi, objLo []float64, atLeastOne bool) (up, lo solveResult) {
	e, cp := r.e, r.cp
	hiKey := memoKey{task: task, attr: attr, up: true}
	loKey := memoKey{task: task, attr: attr}
	up, haveHi := r.lookup(hiKey)
	lo, haveLo := r.lookup(loKey)
	switch {
	case haveHi && haveLo:
		return up, lo
	case r.seq() || haveHi || haveLo:
		if !haveHi {
			up = cp.solve(r.sc, objHi, true, nil, atLeastOne, r.mopts)
		}
		if !haveLo {
			lo = cp.solve(r.sc, objLo, false, nil, atLeastOne, r.mopts)
		}
	default:
		g := e.sched.NewGroup()
		cost := cp.problemCost()
		g.Submit(cost, func(ws *sched.Workspace) {
			up = cp.solve(taskCtx(ws), objHi, true, nil, atLeastOne, r.mopts)
		})
		g.Submit(cost, func(ws *sched.Workspace) {
			lo = cp.solve(taskCtx(ws), objLo, false, nil, atLeastOne, r.mopts)
		})
		g.Wait(r.callerWS())
	}
	if !haveHi {
		r.remember(hiKey, up)
	}
	if !haveLo {
		r.remember(loKey, lo)
	}
	return up, lo
}

// Count bounds COUNT(*) over the missing rows satisfying where.
func (e *Engine) Count(where *predicate.P) (Range, error) {
	if e.useFast() {
		return fastCount(e.disjointCells(-1, where)), nil
	}
	cp, memo, err := e.decompose(where)
	if err != nil {
		return Range{}, err
	}
	if len(cp.cells) == 0 {
		return Range{LoExact: true, HiExact: true, SATChecks: cp.satChecks}, nil
	}
	sc := e.acquireCtx()
	defer e.releaseCtx(sc)
	rn := e.newRunner(cp, memo, sc)
	obj := cp.ones()
	up, lo := rn.solvePair(memoCount, "", obj, obj, false)
	return cp.newRange(lo, up), nil
}

// Sum bounds SUM(attr) over the missing rows satisfying where.
func (e *Engine) Sum(attr string, where *predicate.P) (Range, error) {
	if e.useFast() {
		return fastSum(e.disjointCells(e.snap.Schema().MustIndex(attr), where)), nil
	}
	cp, memo, err := e.decompose(where)
	if err != nil {
		return Range{}, err
	}
	if len(cp.cells) == 0 {
		return Range{LoExact: true, HiExact: true, SATChecks: cp.satChecks}, nil
	}
	sc := e.acquireCtx()
	defer e.releaseCtx(sc)
	rn := e.newRunner(cp, memo, sc)
	ai := e.snap.Schema().MustIndex(attr)
	u := cp.upperVec(ai)
	l := cp.lowerVec(ai)

	// Cells with an unbounded value range make the corresponding endpoint
	// infinite iff a row can actually be placed there — one per-cell
	// feasibility task per such cell.
	var infIdx []int
	for i := range cp.cells {
		if math.IsInf(u[i], 1) || math.IsInf(l[i], -1) {
			infIdx = append(infIdx, i)
		}
	}
	hiInf, loInf := false, false
	if len(infIdx) > 0 {
		reach := make([]bool, len(cp.cells))
		rn.cellFeas(infIdx, reach)
		for _, i := range infIdx {
			if math.IsInf(u[i], 1) {
				if reach[i] {
					hiInf = true
				}
				u[i] = 0 // unreachable cell: coefficient irrelevant
			}
			if math.IsInf(l[i], -1) {
				if reach[i] {
					loInf = true
				}
				l[i] = 0
			}
		}
	}

	up, lo := rn.solvePair(memoSum, attr, u, l, false)
	r := cp.newRange(lo, up)
	if hiInf {
		r.Hi = math.Inf(1)
		r.HiExact = true
	}
	if loInf {
		r.Lo = math.Inf(-1)
		r.LoExact = true
	}
	return r, nil
}

// Avg bounds AVG(attr) over the missing rows satisfying where, via the
// paper's binary search over a parametric allocation problem (Section 4.2).
// The returned range is conditional on at least one missing row existing in
// the region; MaybeEmpty reports whether zero rows is also possible.
func (e *Engine) Avg(attr string, where *predicate.P) (Range, error) {
	if e.useFast() {
		return fastAvg(e.disjointCells(e.snap.Schema().MustIndex(attr), where)), nil
	}
	cp, memo, err := e.decompose(where)
	if err != nil {
		return Range{}, err
	}
	if len(cp.cells) == 0 {
		r := emptyRange()
		r.SATChecks = cp.satChecks
		return r, nil
	}
	sc := e.acquireCtx()
	defer e.releaseCtx(sc)
	rn := e.newRunner(cp, memo, sc)
	if !rn.probFeas(true) {
		r := emptyRange()
		r.SATChecks = cp.satChecks
		return r, nil
	}
	ai := e.snap.Schema().MustIndex(attr)
	u := cp.upperVec(ai)
	l := cp.lowerVec(ai)

	hi0, lo0 := math.Inf(-1), math.Inf(1)
	for i := range cp.cells {
		hi0 = math.Max(hi0, u[i])
		lo0 = math.Min(lo0, l[i])
	}
	r := Range{MaybeEmpty: cp.mayBeEmpty(), Cells: len(cp.cells), SATChecks: cp.satChecks}
	if math.IsInf(hi0, 1) || math.IsInf(lo0, -1) {
		// Unbounded value constraints: fall back to the trivial hull.
		r.Lo, r.Hi = lo0, hi0
		return r, nil
	}
	r.Hi, r.Lo = rn.avgEndpoints(attr, u, l, lo0, hi0)
	return r, nil
}

// avgEndpoints runs the two AVG bisection searches — each a sequential
// chain of parametric MILP probes, but independent of the other — as two
// concurrent tasks, memoized per attribute.
func (r *cellRunner) avgEndpoints(attr string, u, l []float64, lo0, hi0 float64) (hiE, loE float64) {
	e, cp := r.e, r.cp
	mopts := r.mopts
	hiKey := memoKey{task: memoAvg, attr: attr, up: true}
	loKey := memoKey{task: memoAvg, attr: attr}
	hiV, haveHi := r.lookup(hiKey)
	loV, haveLo := r.lookup(loKey)
	hiE, loE = hiV.bound, loV.bound
	// Each search owns its objective buffer: a probe overwrites every entry
	// and cp.solve copies the objective into the LP, so per-search buffers
	// are bit-identical to the old shared one — and safe to run concurrently.
	runHi := func(sc *solveCtx) float64 {
		obj := make([]float64, len(u))
		// Upper: sup{r : max Σ (U_i - r)·x_i >= 0 over allocations with >=1 row}.
		return binarySearchAvg(lo0, hi0, func(mid float64) bool {
			for i := range u {
				obj[i] = u[i] - mid
			}
			sol := cp.solve(sc, obj, true, nil, true, mopts)
			// sol.bound >= optimum: "< 0" proves mid is unachievable.
			return sol.feasible && sol.bound >= 0
		}, true)
	}
	runLo := func(sc *solveCtx) float64 {
		obj := make([]float64, len(l))
		// Lower: inf{r : min Σ (L_i - r)·x_i <= 0 over allocations with >=1 row}.
		return binarySearchAvg(lo0, hi0, func(mid float64) bool {
			for i := range l {
				obj[i] = l[i] - mid
			}
			sol := cp.solve(sc, obj, false, nil, true, mopts)
			// sol.bound <= optimum: "> 0" proves avg <= mid is impossible.
			return sol.feasible && sol.bound <= 0
		}, false)
	}
	switch {
	case haveHi && haveLo:
		return hiE, loE
	case r.seq() || haveHi || haveLo:
		if !haveHi {
			hiE = runHi(r.sc)
		}
		if !haveLo {
			loE = runLo(r.sc)
		}
	default:
		g := e.sched.NewGroup()
		cost := cp.problemCost() * 8 // a search issues ~60 probe solves
		g.Submit(cost, func(ws *sched.Workspace) { hiE = runHi(taskCtx(ws)) })
		g.Submit(cost, func(ws *sched.Workspace) { loE = runLo(taskCtx(ws)) })
		g.Wait(r.callerWS())
	}
	if !haveHi {
		r.remember(hiKey, solveResult{bound: hiE})
	}
	if !haveLo {
		r.remember(loKey, solveResult{bound: loE})
	}
	return hiE, loE
}

// binarySearchAvg searches [lo, hi]. For the upper endpoint (searchSup),
// ok(mid) means "average >= mid is possible" and the final hi is returned
// (sound from above). For the lower endpoint, ok(mid) means "average <= mid
// is possible" and the final lo is returned (sound from below).
func binarySearchAvg(lo, hi float64, ok func(float64) bool, searchSup bool) float64 {
	if lo >= hi {
		return lo
	}
	for iter := 0; iter < 60 && hi-lo > 1e-9*(1+math.Abs(hi)+math.Abs(lo)); iter++ {
		mid := lo + (hi-lo)/2
		if searchSup {
			if ok(mid) {
				lo = mid
			} else {
				hi = mid
			}
		} else {
			if ok(mid) {
				hi = mid
			} else {
				lo = mid
			}
		}
	}
	if searchSup {
		return hi
	}
	return lo
}

// Max bounds MAX(attr) over the missing rows satisfying where. Hi is the
// largest value any instance can exhibit; Lo is the smallest possible
// maximum among instances with at least one row.
func (e *Engine) Max(attr string, where *predicate.P) (Range, error) {
	if e.useFast() {
		return fastMinMax(e.disjointCells(e.snap.Schema().MustIndex(attr), where), true), nil
	}
	return e.minMax(attr, where, true)
}

// Min bounds MIN(attr), dual to Max.
func (e *Engine) Min(attr string, where *predicate.P) (Range, error) {
	if e.useFast() {
		return fastMinMax(e.disjointCells(e.snap.Schema().MustIndex(attr), where), false), nil
	}
	return e.minMax(attr, where, false)
}

func (e *Engine) minMax(attr string, where *predicate.P, isMax bool) (Range, error) {
	cp, memo, err := e.decompose(where)
	if err != nil {
		return Range{}, err
	}
	if len(cp.cells) == 0 {
		r := emptyRange()
		r.SATChecks = cp.satChecks
		return r, nil
	}
	sc := e.acquireCtx()
	defer e.releaseCtx(sc)
	rn := e.newRunner(cp, memo, sc)
	ai := e.snap.Schema().MustIndex(attr)
	u := cp.upperVec(ai)
	l := cp.lowerVec(ai)

	// Reachable cells: those that can host at least one row. One
	// independent MILP per cell — the dominant per-cell fan-out of the
	// whole engine, and the reduction below runs in fixed index order.
	reach := make([]bool, len(cp.cells))
	rn.cellFeas(cp.idxAll, reach)
	any := false
	for i := range cp.cells {
		any = any || reach[i]
	}
	if !any {
		r := emptyRange()
		r.SATChecks = cp.satChecks
		return r, nil
	}

	r := Range{MaybeEmpty: cp.mayBeEmpty(), Cells: len(cp.cells), SATChecks: cp.satChecks, LoExact: true, HiExact: true}
	if isMax {
		// Hi: the largest upper value among reachable cells (a row placed
		// there at its cell maximum realizes it).
		r.Hi = math.Inf(-1)
		for i := range cp.cells {
			if reach[i] {
				r.Hi = math.Max(r.Hi, u[i])
			}
		}
		// Lo: minimize the largest lower-value among used cells. Search
		// thresholds ascending; the first feasible restriction wins.
		r.Lo = rn.thresholdSearch(attr, l, true)
	} else {
		r.Lo = math.Inf(1)
		for i := range cp.cells {
			if reach[i] {
				r.Lo = math.Min(r.Lo, l[i])
			}
		}
		r.Hi = rn.thresholdSearch(attr, u, false)
	}
	return r, nil
}

// thresholdSearch finds, for MAX (ascending=true), the smallest t such that
// an allocation using only cells with vals[i] <= t (and >= 1 row) is
// feasible; for MIN it finds the largest t over cells with vals[i] >= t.
//
// The sequential reference walks thresholds in order and stops at the first
// feasible one. The scheduler path evaluates thresholds in waves sized to
// the scheduler width: every probe is an independent restricted MILP, and
// the answer — the first feasible threshold in order — is identical
// whichever probes actually ran, so results stay bit-identical while at
// most one wave of extra probes is spent. The final threshold is memoized
// per attribute and direction.
func (r *cellRunner) thresholdSearch(attr string, vals []float64, ascending bool) float64 {
	k := memoKey{task: memoThreshold, attr: attr, up: ascending}
	if v, ok := r.lookup(k); ok {
		return v.bound
	}
	t := r.thresholdSearchUncached(vals, ascending)
	r.remember(k, solveResult{bound: t})
	return t
}

func (r *cellRunner) thresholdSearchUncached(vals []float64, ascending bool) float64 {
	cp := r.cp
	uniq := append([]float64(nil), vals...)
	sort.Float64s(uniq)
	// Deduplicate: decompositions routinely give many cells the same
	// attribute bound, and each duplicate would cost a full MILP probe (a
	// whole wave of them on the scheduler path). The first feasible
	// threshold VALUE is unchanged, so results are bit-identical.
	uniq = slices.Compact(uniq)
	if !ascending {
		for i, j := 0, len(uniq)-1; i < j; i, j = i+1, j-1 {
			uniq[i], uniq[j] = uniq[j], uniq[i]
		}
	}
	probe := func(sc *solveCtx, t float64, forbid []bool) bool {
		for i, v := range vals {
			forbid[i] = (ascending && v > t) || (!ascending && v < t)
		}
		return cp.feasible(sc, forbid, true, -1, r.mopts)
	}
	width := 1
	if !r.seq() {
		width = r.e.sched.Workers() + 1
	}
	if width <= 1 {
		forbid := make([]bool, len(vals))
		for _, t := range uniq {
			if probe(r.sc, t, forbid) {
				return t
			}
		}
	} else {
		feas := make([]bool, len(uniq))
		for w0 := 0; w0 < len(uniq); w0 += width {
			end := w0 + width
			if end > len(uniq) {
				end = len(uniq)
			}
			if end-w0 == 1 {
				forbid := make([]bool, len(vals))
				feas[w0] = probe(r.sc, uniq[w0], forbid)
			} else {
				g := r.e.sched.NewGroup()
				for k := w0; k < end; k++ {
					k := k
					g.Submit(cp.problemCost(), func(ws *sched.Workspace) {
						forbid := make([]bool, len(vals))
						feas[k] = probe(taskCtx(ws), uniq[k], forbid)
					})
				}
				g.Wait(r.callerWS())
			}
			for k := w0; k < end; k++ {
				if feas[k] {
					return uniq[k]
				}
			}
		}
	}
	// Every restriction infeasible: the unrestricted extremum is the only
	// sound answer.
	if ascending {
		m := math.Inf(-1)
		for _, v := range vals {
			m = math.Max(m, v)
		}
		return m
	}
	m := math.Inf(1)
	for _, v := range vals {
		m = math.Min(m, v)
	}
	return m
}

// newRange assembles a Range from directional solve results.
func (cp *cellProblem) newRange(lo, up solveResult) Range {
	r := Range{
		Cells:     len(cp.cells),
		SATChecks: cp.satChecks,
	}
	if up.feasible {
		r.Hi = up.bound
		r.HiExact = up.exact
	} else {
		r.Hi = math.Inf(-1)
	}
	if lo.feasible {
		r.Lo = lo.bound
		r.LoExact = lo.exact
	} else {
		r.Lo = math.Inf(1)
	}
	r.Reconciled = lo.reconciled || up.reconciled
	// Unverified (early-stopped) cells mean the bound may be loose.
	for _, c := range cp.cells {
		if !c.Verified {
			r.LoExact, r.HiExact = false, false
			break
		}
	}
	return r
}
