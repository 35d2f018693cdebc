package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"pcbound/internal/cells"
	"pcbound/internal/domain"
	"pcbound/internal/lp"
	"pcbound/internal/milp"
	"pcbound/internal/predicate"
	"pcbound/internal/sat"
	"pcbound/internal/sched"
)

// Agg identifies an aggregate function.
type Agg int

const (
	// Count is COUNT(*).
	Count Agg = iota
	// Sum is SUM(attr).
	Sum
	// Avg is AVG(attr).
	Avg
	// Min is MIN(attr).
	Min
	// Max is MAX(attr).
	Max
)

func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	default:
		return fmt.Sprintf("Agg(%d)", int(a))
	}
}

// Query is an aggregate query over the missing partition:
// SELECT Agg(Attr) FROM R? WHERE Where.
type Query struct {
	Agg   Agg
	Attr  string       // aggregated attribute; ignored for COUNT
	Where *predicate.P // nil means no predicate
}

// String renders the query SQL-ishly for error messages and logs, e.g.
// "SUM(price) WHERE region=[0,10]".
func (q Query) String() string {
	attr := q.Attr
	if q.Agg == Count && attr == "" {
		attr = "*"
	}
	if q.Where == nil {
		return fmt.Sprintf("%s(%s)", q.Agg, attr)
	}
	return fmt.Sprintf("%s(%s) WHERE %s", q.Agg, attr, q.Where)
}

// Range is a hard result range: the aggregate of every missing-data instance
// satisfying the constraint set lies in [Lo, Hi].
type Range struct {
	Lo, Hi float64
	// LoExact / HiExact report whether the endpoint was proven optimal
	// (tight) by the MILP, as opposed to a sound-but-looser relaxation or
	// early-stopping bound.
	LoExact, HiExact bool
	// MaybeEmpty is set for MIN/MAX/AVG when the constraints admit an
	// instance with zero missing rows, on which the aggregate is undefined;
	// Lo/Hi then bound the aggregate over non-empty instances.
	MaybeEmpty bool
	// Reconciled is set when the frequency lower bounds were mutually
	// unsatisfiable and were relaxed to zero to produce a (sound) range,
	// per the paper's "reconcile conflicting constraints" behaviour.
	Reconciled bool
	// Cells is the number of satisfiable decomposition cells used.
	Cells int
	// SATChecks counts satisfiability queries issued for this bound.
	SATChecks int64
}

// Contains reports whether v lies in the range.
func (r Range) Contains(v float64) bool { return v >= r.Lo-1e-9 && v <= r.Hi+1e-9 }

// Width returns Hi - Lo.
func (r Range) Width() float64 { return r.Hi - r.Lo }

func (r Range) String() string {
	return fmt.Sprintf("[%g, %g]", r.Lo, r.Hi)
}

// Options configures an Engine.
type Options struct {
	// Cells configures cell decomposition (strategy, early stopping…).
	// The Pushdown field is managed per query and must be left nil.
	Cells cells.Options
	// MILP configures the branch-and-bound search. The Ctx field is managed
	// per query by the engine and must be left nil; WarmStart may be set to
	// re-optimize branch-and-bound children from their parent basis (faster,
	// but last-ulp rounding may differ from the default cold solves).
	MILP milp.Options
	// DisableFastPath forces the general MILP path even for disjoint sets.
	DisableFastPath bool
	// DisableDecompCache turns off the decomposition cache, forcing every
	// query to re-run DFS+SAT even when another query already decomposed the
	// same pushdown-normalized region, and every solve over it to re-run.
	DisableDecompCache bool
	// DecompCacheSize caps the number of cached query regions
	// (0 = DefaultDecompCacheSize). Each region may hold up to two
	// epoch-interval entries — the store frontier's and a snapshot-pinned
	// reader's — so resident decompositions, each with the memo of solves
	// run over it, are bounded by twice this value. Once full, inserting a
	// new region evicts an arbitrary resident one, keeping memory bounded;
	// eviction can only cost recomputation, never change a result.
	DecompCacheSize int
	// Scheduler supplies the shared cell-solve scheduler for intra-query
	// parallelism: per-cell LP/MILP tasks from every in-flight query on this
	// engine (and every other engine sharing the scheduler, e.g. a server
	// pool) are dispatched cost-ordered across one worker pool, so a single
	// MILP-heavy query fans its cells out instead of pegging one core. nil
	// uses the process-wide sched.Shared() scheduler. Results are
	// bit-identical to the sequential path at any worker count: tasks write
	// index-addressed slots and every reduction runs in fixed cell order.
	Scheduler *sched.Scheduler
	// SequentialCells disables intra-query parallelism: cell solves run
	// inline on the calling goroutine in index order. This is the reference
	// path the differential tests pin the scheduler path against; results
	// are bit-identical either way.
	SequentialCells bool
	// Reference routes every optimized hot-path layer to its preserved
	// pre-optimization implementation: the recursive SAT search, the
	// clone-per-child branch-and-bound, and per-solve LP assembly, with
	// sequential cell solving, a MILP for every reachability probe and no
	// solve memo. Results are bit-identical to the default configuration;
	// the flag exists for differential testing and benchmarking (see
	// BenchmarkHotPath). It only takes effect for solvers the engine creates
	// itself (pass solver=nil).
	Reference bool
	// Summary supplies the tiered-precision overlay (see AttachSummary):
	// sound O(dims) interval answers maintained from the store's mutation
	// stream, with escalation to the exact path when the loose interval
	// exceeds a width budget. nil disables the summary tier. The overlay is
	// a strict overlay — every exact-path entry point (Bound, BoundBatch,
	// BoundTiered with TierExact, …) is bit-identical with or without it.
	Summary *SummaryOverlay
}

// DefaultDecompCacheSize is the decomposition-cache capacity used when
// Options.DecompCacheSize is zero.
const DefaultDecompCacheSize = 1024

// Engine computes hard aggregate ranges for one constraint-store snapshot.
// An engine binds to the snapshot for its lifetime: concurrent Store writers
// never perturb its results, and everything it computes is bit-identical to
// a freshly built engine over the same PC multiset. An engine is safe for
// concurrent use: Bound may be called from many goroutines, and BoundBatch
// fans a whole workload out across workers (each bound to the same
// snapshot).
type Engine struct {
	snap   *Snapshot
	solver *sat.Solver
	opts   Options
	cache  *epochCache // nil when DisableDecompCache is set
	// sched dispatches per-cell solve tasks; nil runs cells sequentially
	// (SequentialCells or Reference).
	sched *sched.Scheduler
	// ctxPool recycles per-query solve contexts (LP tableau arenas plus a
	// reusable problem shell), so the two-direction × relax-retry pattern and
	// the feasibility/threshold searches stop reallocating the LP. Solve
	// contexts carry no constraint-derived state, so the pool is shared
	// across batch workers and across epochs after Rebind — pooling survives
	// store mutations instead of being keyed away per epoch.
	ctxPool *sync.Pool // of *solveCtx
}

// NewEngine builds an engine bound to the store's current snapshot. A fresh
// SAT solver is created if solver is nil. Mutations to the store after this
// call are invisible to the engine; use Rebind to bind a successor engine to
// the store's latest state while keeping the decomposition cache warm.
func NewEngine(set *Store, solver *sat.Solver, opts Options) *Engine {
	return NewEngineAt(set.Snapshot(), solver, opts)
}

// NewEngineAt builds an engine bound to a specific snapshot.
func NewEngineAt(snap *Snapshot, solver *sat.Solver, opts Options) *Engine {
	if solver == nil {
		solver = sat.New(snap.Schema())
		solver.UseReference(opts.Reference)
	}
	e := &Engine{snap: snap, solver: solver, opts: opts, ctxPool: &sync.Pool{}}
	if !opts.DisableDecompCache {
		size := opts.DecompCacheSize
		if size <= 0 {
			size = DefaultDecompCacheSize
		}
		e.cache = newEpochCache(size, snap.Store())
	}
	if !opts.SequentialCells && !opts.Reference {
		e.sched = opts.Scheduler
		if e.sched == nil {
			e.sched = sched.Shared()
		}
	}
	return e
}

// Rebind returns an engine bound to the store's current snapshot, sharing
// this engine's SAT solver, options, solve-context pool, and decomposition
// cache. Cached decompositions whose regions were untouched by the
// intervening mutations stay live (scoped invalidation — see epochCache),
// which is what makes mutate→rebound much cheaper than building a fresh
// engine. If the store has not changed, the receiver itself is returned.
func (e *Engine) Rebind() *Engine {
	snap := e.snap.Store().Snapshot()
	if snap == e.snap {
		return e
	}
	return &Engine{
		snap: snap, solver: e.solver, opts: e.opts, cache: e.cache,
		sched: e.sched, ctxPool: e.ctxPool,
	}
}

// solveCtx is one executor's solve workspace: an LP context (tableau
// arenas), a branch-and-bound workspace (node queue and path scratch), and
// a problem shell rebuilt row-set by row-set via cellProblem.buildInto. It
// carries no constraint- or engine-derived state, so contexts are freely
// shared across queries, epochs, and engines: one lives per scheduler
// worker (sched.Workspace.Local), and callers pool theirs via ctxPool.
type solveCtx struct {
	lp    lp.Context
	work  milp.Workspace
	prob  lp.Problem
	zeros []float64
}

// zeroObj returns an all-zero objective of length n from the context's
// scratch (Problem.Reset copies it, so sharing the buffer is safe).
func (sc *solveCtx) zeroObj(n int) []float64 {
	if cap(sc.zeros) < n {
		sc.zeros = make([]float64, n)
	}
	sc.zeros = sc.zeros[:n]
	clear(sc.zeros)
	return sc.zeros
}

// acquireCtx returns a pooled solve context, or nil in Reference mode (the
// reference path assembles a fresh LP per solve, like the seed did).
func (e *Engine) acquireCtx() *solveCtx {
	if e.opts.Reference {
		return nil
	}
	if v := e.ctxPool.Get(); v != nil {
		return v.(*solveCtx)
	}
	return &solveCtx{}
}

func (e *Engine) releaseCtx(sc *solveCtx) {
	if sc != nil {
		e.ctxPool.Put(sc)
	}
}

// milpOpts returns the per-query MILP options with the engine-level
// reference flag applied. The per-executor Ctx/Work are attached at solve
// time from whichever solve context runs the task.
func (e *Engine) milpOpts() milp.Options {
	m := e.opts.MILP
	m.Ctx = nil
	m.Work = nil
	m.Reference = e.opts.Reference
	return m
}

// Snapshot returns the store snapshot the engine is bound to.
func (e *Engine) Snapshot() *Snapshot { return e.snap }

// Solver returns the engine's SAT solver (for stats inspection).
func (e *Engine) Solver() *sat.Solver { return e.solver }

// Scheduler returns the cell-solve scheduler the engine dispatches to, or
// nil when cell solves run sequentially (SequentialCells or Reference).
func (e *Engine) Scheduler() *sched.Scheduler { return e.sched }

// Bound dispatches on the aggregate kind.
func (e *Engine) Bound(q Query) (Range, error) {
	switch q.Agg {
	case Count:
		return e.Count(q.Where)
	case Sum:
		return e.Sum(q.Attr, q.Where)
	case Avg:
		return e.Avg(q.Attr, q.Where)
	case Min:
		return e.Min(q.Attr, q.Where)
	case Max:
		return e.Max(q.Attr, q.Where)
	default:
		// Name the whole query, not just the aggregate code: this error
		// surfaces as a serving-layer 400, and "unknown aggregate Agg(7)"
		// alone gives the client nothing to find the offending request by.
		return Range{}, fmt.Errorf("core: unknown aggregate %v in query %s (want COUNT, SUM, AVG, MIN or MAX)", q.Agg, q)
	}
}

// BoundCtx is Bound with pre-flight cancellation: a query whose context is
// already done is not started. Cancellation is checked at query
// granularity, matching BoundBatchCtx — an in-flight bound runs to
// completion so partial cell reductions never escape.
func (e *Engine) BoundCtx(ctx context.Context, q Query) (Range, error) {
	if err := ctx.Err(); err != nil {
		return Range{}, err
	}
	return e.Bound(q)
}

// cellProblem is the optimization problem extracted from a decomposition:
// one integer variable per cell, one frequency window per constraint.
//
// pcvet:immutable — a cellProblem is shared across queries and workers via
// the decomposition cache; after decomposeUncached returns it, no slice or
// map hanging off it may be written (enforced by the snapmut analyzer).
type cellProblem struct {
	schema *domain.Schema
	cells  []cells.Cell
	// cellsOf[j] lists cell indices in which constraint j is active.
	cellsOf map[int][]int
	// kLo/kHi are the (pushdown-adjusted) frequency windows by original
	// constraint index.
	kLo, kHi map[int]float64
	// valueBoxes[j] is constraint j's ν.
	valueBoxes []domain.Box
	// capHi[i] is the per-cell cardinality cap (min of active KHi).
	capHi []float64

	// Immutable row-assembly data precomputed once per decomposition, shared
	// by every query and worker that reuses this problem: the sorted
	// constraint indices, a shared all-ones coefficient vector, and the
	// identity index vector whose sub-slices serve as single-cell rows.
	consIdx []int
	onesVal []float64
	idxAll  []int

	// coupled records whether any active frequency lower bound survived
	// pushdown. When none did, the LP has only ≤ rows, and a cell can host a
	// row exactly when capHi[i] >= 1 (see cellRunner.cellFeas).
	coupled bool

	satChecks int64
}

// decompose runs cell decomposition for a query predicate and assembles the
// optimization problem. Queries sharing a pushdown-normalized region reuse
// the cached problem: a cellProblem is immutable after construction, so one
// instance may serve any number of queries and goroutines. A cached hit
// reports the SAT checks spent when the decomposition was first computed.
// memo is the cached entry's solve memo, nil when the decomposition cache is
// off or under Options.Reference.
func (e *Engine) decompose(where *predicate.P) (cp *cellProblem, memo *solveMemo, err error) {
	if e.cache == nil {
		cp, err = e.decomposeUncached(where)
		return cp, nil, err
	}
	base := cells.PushdownBox(e.snap.Schema(), where)
	key := cells.BoxKey(base)
	en, ok := e.cache.get(key, e.snap.epoch)
	if !ok {
		if cp, err = e.decomposeUncached(where); err != nil {
			return nil, nil, err
		}
		en = &decompEntry{cp: cp}
		e.cache.put(key, base, en, e.snap.epoch)
	}
	if e.opts.Reference {
		return en.cp, nil, nil
	}
	return en.cp, &en.memo, nil
}

func (e *Engine) decomposeUncached(where *predicate.P) (*cellProblem, error) {
	opts := e.opts.Cells
	opts.Pushdown = where
	res, err := cells.Decompose(e.solver, e.snap.Predicates(), opts)
	if err != nil {
		return nil, err
	}
	cp := &cellProblem{
		schema:  e.snap.Schema(),
		cells:   res.Cells,
		cellsOf: make(map[int][]int),
		kLo:     make(map[int]float64),
		kHi:     make(map[int]float64),
	}
	cp.satChecks = res.Checks
	cp.valueBoxes = make([]domain.Box, e.snap.Len())
	for j, pc := range e.snap.pcs {
		cp.valueBoxes[j] = pc.Values
	}
	for i, c := range res.Cells {
		for _, j := range c.Active {
			cp.cellsOf[j] = append(cp.cellsOf[j], i)
		}
	}
	for j, pc := range e.snap.pcs {
		if len(cp.cellsOf[j]) == 0 {
			continue // dropped by pushdown or fully pruned
		}
		cp.kHi[j] = float64(pc.KHi)
		lo := float64(pc.KLo)
		// A frequency lower bound forces rows to exist somewhere in ψ. Those
		// rows are only forced INTO the query region when ψ lies entirely
		// inside it; otherwise they may live outside and the lower bound
		// must be relaxed to keep the range sound.
		if where != nil && !pc.Pred.Implies(where) {
			lo = 0
		}
		cp.kLo[j] = lo
		if lo > 0 {
			cp.coupled = true
		}
	}
	cp.capHi = make([]float64, len(cp.cells))
	khiVec := make([]float64, e.snap.Len())
	for j, pc := range e.snap.pcs {
		khiVec[j] = float64(pc.KHi)
	}
	for i := range cp.cells {
		cp.capHi[i] = cp.cells[i].MaxCount(khiVec)
	}
	cp.consIdx = cp.constraintIdx()
	size := len(cp.cells)
	for _, j := range cp.consIdx {
		if l := len(cp.cellsOf[j]); l > size {
			size = l
		}
	}
	cp.onesVal = make([]float64, size)
	for i := range cp.onesVal {
		cp.onesVal[i] = 1
	}
	cp.idxAll = make([]int, len(cp.cells))
	for i := range cp.idxAll {
		cp.idxAll[i] = i
	}
	return cp, nil
}

// constraintIdx returns the sorted constraint indices with at least one cell.
func (cp *cellProblem) constraintIdx() []int {
	idx := make([]int, 0, len(cp.cellsOf))
	for j := range cp.cellsOf {
		idx = append(idx, j)
	}
	sort.Ints(idx)
	return idx
}

// buildInto assembles the same LP buildLP does, but into the context's
// reused problem shell: rows are pushed as references to the cellProblem's
// immutable index/coefficient slices, so assembling a variant (direction,
// relaxation, forbidden cells) costs no row allocation. The row order is
// identical to buildLP's, which keeps solves bit-identical.
func (cp *cellProblem) buildInto(sc *solveCtx, obj []float64, maximize bool, forbidZero []bool, atLeastOne bool, relaxKLo bool) *lp.Problem {
	p := &sc.prob
	p.Reset(obj, maximize)
	for _, j := range cp.consIdx {
		idx := cp.cellsOf[j]
		val := cp.onesVal[:len(idx)]
		if !math.IsInf(cp.kHi[j], 1) {
			_ = p.PushRow(idx, val, lp.LE, cp.kHi[j])
		}
		if !relaxKLo && cp.kLo[j] > 0 {
			_ = p.PushRow(idx, val, lp.GE, cp.kLo[j])
		}
	}
	for i := range cp.cells {
		if forbidZero != nil && forbidZero[i] {
			_ = p.PushRow(cp.idxAll[i:i+1], cp.onesVal[:1], lp.LE, 0)
			continue
		}
		if !math.IsInf(cp.capHi[i], 1) {
			_ = p.PushRow(cp.idxAll[i:i+1], cp.onesVal[:1], lp.LE, cp.capHi[i])
		}
	}
	if atLeastOne {
		_ = p.PushRow(cp.idxAll, cp.onesVal[:len(cp.cells)], lp.GE, 1)
	}
	return p
}

// buildLP assembles the base LP (no objective semantics; obj must have one
// coefficient per cell). forbidZero lists cells constrained to x=0, and
// atLeastOne adds Σx ≥ 1. relaxKLo drops frequency lower bounds. It is the
// reference-path assembly; hot paths use buildInto.
func (cp *cellProblem) buildLP(obj []float64, maximize bool, forbidZero []bool, atLeastOne bool, relaxKLo bool) *lp.Problem {
	var p *lp.Problem
	if maximize {
		p = lp.NewMaximize(obj)
	} else {
		p = lp.NewMinimize(obj)
	}
	for _, j := range cp.constraintIdx() {
		idx := cp.cellsOf[j]
		val := make([]float64, len(idx))
		for k := range val {
			val[k] = 1
		}
		if !math.IsInf(cp.kHi[j], 1) {
			_ = p.AddSparse(idx, val, lp.LE, cp.kHi[j])
		}
		if !relaxKLo && cp.kLo[j] > 0 {
			_ = p.AddSparse(idx, val, lp.GE, cp.kLo[j])
		}
	}
	for i := range cp.cells {
		if forbidZero != nil && forbidZero[i] {
			_ = p.AddSparse([]int{i}, []float64{1}, lp.LE, 0)
			continue
		}
		_ = p.AddUpperBound(i, cp.capHi[i])
	}
	if atLeastOne {
		all := make([]float64, len(cp.cells))
		for i := range all {
			all[i] = 1
		}
		_ = p.AddDense(all, lp.GE, 1)
	}
	return p
}

// solveResult carries a directional MILP outcome.
type solveResult struct {
	bound      float64 // sound outer bound in the requested direction
	exact      bool    // proven optimal
	reconciled bool    // kLo relaxation was needed
	feasible   bool
}

// solve optimizes obj over the cell problem in the given direction, relaxing
// frequency lower bounds if the system is infeasible (constraint
// reconciliation). sc supplies the reusable assembly/solve workspace; nil
// (Reference mode) rebuilds the LP from scratch per attempt, as the seed
// implementation did.
func (cp *cellProblem) solve(sc *solveCtx, obj []float64, maximize bool, forbidZero []bool, atLeastOne bool, mopts milp.Options) solveResult {
	for _, relax := range []bool{false, true} {
		var p *lp.Problem
		if sc != nil {
			p = cp.buildInto(sc, obj, maximize, forbidZero, atLeastOne, relax)
			mopts.Ctx = &sc.lp
			mopts.Work = &sc.work
		} else {
			p = cp.buildLP(obj, maximize, forbidZero, atLeastOne, relax)
		}
		var sol milp.Solution
		if maximize {
			sol = milp.SolveMax(milp.Problem{LP: p}, mopts)
		} else {
			sol = milp.SolveMin(milp.Problem{LP: p}, mopts)
		}
		switch sol.Status {
		case milp.Optimal:
			return solveResult{bound: sol.Objective, exact: true, reconciled: relax, feasible: true}
		case milp.Feasible, milp.BoundOnly:
			return solveResult{bound: sol.Bound, exact: false, reconciled: relax, feasible: true}
		case milp.Unbounded:
			inf := math.Inf(1)
			if !maximize {
				inf = math.Inf(-1)
			}
			return solveResult{bound: inf, exact: true, reconciled: relax, feasible: true}
		case milp.Infeasible:
			// fall through to the relaxed attempt
		}
	}
	return solveResult{feasible: false}
}

// feasible reports whether some allocation may satisfy the constraints with
// the given cell restrictions. An undecided verdict counts as feasible:
// on a true every caller keeps a cell, a threshold or AVG's search, and
// keeping one that a node cap could not rule out only widens the range.
func (cp *cellProblem) feasible(sc *solveCtx, forbidZero []bool, atLeastOne bool, minOne int, mopts milp.Options) bool {
	ok, decided := cp.feasibleStatus(sc, forbidZero, atLeastOne, minOne, mopts)
	return ok || !decided
}

// feasibleStatus reports whether the solver found an allocation satisfying
// the constraints with the given cell restrictions, and whether that verdict
// is decided. A true verdict always is (an incumbent or proven-optimal
// solution exists), as is a false from a proven-infeasible search; a false
// from a BoundOnly exit — node budget exhausted with no incumbent found —
// proves nothing.
func (cp *cellProblem) feasibleStatus(sc *solveCtx, forbidZero []bool, atLeastOne bool, minOne int, mopts milp.Options) (ok, decided bool) {
	var p *lp.Problem
	if sc != nil {
		zeros := sc.zeroObj(len(cp.cells))
		p = cp.buildInto(sc, zeros, true, forbidZero, atLeastOne, false)
		if minOne >= 0 {
			_ = p.PushRow(cp.idxAll[minOne:minOne+1], cp.onesVal[:1], lp.GE, 1)
		}
		mopts.Ctx = &sc.lp
		mopts.Work = &sc.work
	} else {
		obj := make([]float64, len(cp.cells))
		p = cp.buildLP(obj, true, forbidZero, atLeastOne, false)
		if minOne >= 0 {
			_ = p.AddSparse([]int{minOne}, []float64{1}, lp.GE, 1)
		}
	}
	sol := milp.SolveMax(milp.Problem{LP: p}, mopts)
	ok = sol.Status == milp.Optimal || sol.Status == milp.Feasible
	decided = ok || sol.Status == milp.Infeasible
	return ok, decided
}

// mayBeEmpty reports whether the zero allocation is feasible (no forced
// rows inside the query region).
func (cp *cellProblem) mayBeEmpty() bool {
	for _, j := range cp.consIdx {
		if cp.kLo[j] > 0 {
			return false
		}
	}
	return true
}

// upperVec / lowerVec compute per-cell extreme values for an attribute.
func (cp *cellProblem) upperVec(attrIdx int) []float64 {
	u := make([]float64, len(cp.cells))
	for i := range cp.cells {
		u[i] = cp.cells[i].UpperValue(attrIdx, cp.valueBoxes)
	}
	return u
}

func (cp *cellProblem) lowerVec(attrIdx int) []float64 {
	l := make([]float64, len(cp.cells))
	for i := range cp.cells {
		l[i] = cp.cells[i].LowerValue(attrIdx, cp.valueBoxes)
	}
	return l
}

func (cp *cellProblem) ones() []float64 {
	o := make([]float64, len(cp.cells))
	for i := range o {
		o[i] = 1
	}
	return o
}
