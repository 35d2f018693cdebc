// Package cells implements cell decomposition (Section 4.1 of the paper):
// splitting a set of possibly-overlapping predicate boxes into disjoint
// satisfiable cells, each identified by the subset of predicates that hold
// inside it.
//
// It implements all four of the paper's optimizations:
//
//  1. Predicate pushdown — the target query's predicate is conjoined into
//     every satisfiability check, and predicates that cannot overlap the
//     query are removed from the branching set entirely.
//  2. DFS pruning — cells are enumerated by a depth-first search over
//     include/exclude decisions; an unsatisfiable prefix prunes its whole
//     subtree.
//  3. Expression rewriting — if a prefix X is satisfiable and X∧Y is not,
//     then X∧¬Y is satisfiable without consulting the solver
//     ((X ∧ ¬(X∧Y)) ⇒ X∧¬Y).
//  4. Approximate early stopping — below DFS layer K, stop verifying and
//     admit every remaining combination as satisfiable. This may admit
//     false-positive cells, which loosens but never invalidates the bounds
//     (the true problem is a sub-problem of the approximation).
package cells

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
	"pcbound/internal/sat"
)

// Strategy selects the enumeration algorithm.
type Strategy int

const (
	// DFSRewrite is the paper's full optimization stack (default).
	DFSRewrite Strategy = iota
	// DFS prunes unsatisfiable prefixes but re-checks every branch.
	DFS
	// Naive enumerates and checks all 2^n cells sequentially.
	Naive
)

func (s Strategy) String() string {
	switch s {
	case DFSRewrite:
		return "dfs+rewrite"
	case DFS:
		return "dfs"
	case Naive:
		return "naive"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a decomposition.
type Options struct {
	// Strategy selects naive/DFS/DFS+rewrite enumeration.
	Strategy Strategy
	// Pushdown, when non-nil, restricts the decomposition to the region
	// satisfying the query predicate (Optimization 1).
	Pushdown *predicate.P
	// EarlyStopLayer > 0 enables Optimization 4: below this DFS depth all
	// surviving combinations are admitted without solver checks.
	EarlyStopLayer int
	// MaxCells caps the number of emitted cells as a safety valve
	// (0 = unlimited). Decompose returns ErrTooManyCells beyond it.
	MaxCells int
	// SkipProjections disables exact per-cell attribute projections
	// (cheaper; value bounds then come only from the cell's positive boxes).
	SkipProjections bool
}

// ErrTooManyCells is returned when MaxCells is exceeded.
var ErrTooManyCells = fmt.Errorf("cells: decomposition exceeded MaxCells")

// PushdownBox returns the pushdown-normalized query region: the schema
// domain clipped by the pushdown predicate's box (the full domain when nil).
// This is the box Decompose intersects every satisfiability check with, and
// the box scoped cache invalidation tests mutated predicates against: a
// predicate box that does not overlap it on the schema lattice is dropped
// from the branching set, so it cannot influence the decomposition.
func PushdownBox(schema *domain.Schema, pushdown *predicate.P) domain.Box {
	b := schema.FullBox()
	if pushdown != nil {
		b = b.Intersect(pushdown.Box())
	}
	return b
}

// BoxKey renders a box bit-exactly as a string, suitable as a cache key:
// two boxes yield the same key iff they have identical float64 endpoints.
func BoxKey(b domain.Box) string {
	var sb strings.Builder
	sb.Grow(len(b) * 34)
	for _, iv := range b {
		sb.WriteString(strconv.FormatUint(math.Float64bits(iv.Lo), 16))
		sb.WriteByte(':')
		sb.WriteString(strconv.FormatUint(math.Float64bits(iv.Hi), 16))
		sb.WriteByte(';')
	}
	return sb.String()
}

// PushdownKey returns a canonical key for the pushdown-normalized query
// region: BoxKey(PushdownBox(schema, pushdown)). Two pushdown predicates
// with the same clipped box yield the same key, and Decompose (and
// everything derived from it) produces identical results for them, so the
// key is safe to use for caching decompositions.
func PushdownKey(schema *domain.Schema, pushdown *predicate.P) string {
	return BoxKey(PushdownBox(schema, pushdown))
}

// Cell is one satisfiable region of the decomposition: the set of points
// satisfying every predicate in Active, no predicate outside it, and the
// pushdown predicate if one was given.
type Cell struct {
	// Active lists indices (into the decomposed predicate set) of the
	// predicates that hold in this cell, ascending.
	Active []int
	// Region is the cell's positive bounding box: the intersection of the
	// active predicate boxes and the pushdown box. The cell's true region is
	// Region minus the inactive predicate boxes.
	Region domain.Box
	// Projection is the tightest per-attribute interval over the true cell
	// region (equal to Region when SkipProjections is set or the cell was
	// admitted unverified by early stopping).
	Projection domain.Box
	// Verified records whether the solver proved the cell satisfiable
	// (false only under early stopping).
	Verified bool
}

// Result is a decomposition outcome.
type Result struct {
	Cells []Cell
	// Checks is the number of satisfiability queries issued (the paper's
	// Figure 7 "number of evaluated cells" metric).
	Checks int64
	// RewriteSkips counts solver calls avoided by Optimization 3.
	RewriteSkips int64
	// PrunedSubtrees counts DFS subtrees cut by an unsatisfiable prefix.
	PrunedSubtrees int64
	// DroppedByPushdown counts predicates removed from the branching set by
	// Optimization 1.
	DroppedByPushdown int
}

// Decompose splits the predicate set into disjoint satisfiable cells.
// The indices in Cell.Active refer to positions in preds.
func Decompose(solver *sat.Solver, preds []*predicate.P, opts Options) (Result, error) {
	schema := solver.Schema()
	var res Result

	base := schema.FullBox()
	if opts.Pushdown != nil {
		base = base.Intersect(opts.Pushdown.Box())
	}

	// Optimization 1: drop predicates that cannot intersect the query box.
	kept := make([]int, 0, len(preds))
	for i, p := range preds {
		if !p.OverlapsBox(base) {
			res.DroppedByPushdown++
			continue
		}
		kept = append(kept, i)
	}
	n := len(kept)
	if n == 0 {
		return res, nil
	}

	boxes := make([]domain.Box, n)
	for k, i := range kept {
		boxes[k] = preds[i].Box()
	}

	dims := len(base)
	dc := &decomposer{
		solver: solver,
		boxes:  boxes,
		kept:   kept,
		opts:   opts,
		res:    &res,
		// The DFS pushes at most one prefix box per include decision plus the
		// root, so the arena's capacity is fixed up front and prefix slices
		// stay valid for the lifetime of their subtree.
		posArena:   make([]domain.Interval, 0, (n+1)*dims),
		active:     make([]int, 0, n),
		neg:        make([]domain.Box, 0, n),
		negScratch: make([]domain.Box, 0, n),
		esAct:      make([]int, 0, n),
		esBox:      make(domain.Box, dims),
	}

	switch opts.Strategy {
	case Naive:
		if err := dc.naive(base); err != nil {
			return res, err
		}
	case DFS, DFSRewrite:
		dc.rewrite = opts.Strategy == DFSRewrite
		// Root must be satisfiable for the rewrite invariant ("prefix is
		// known sat") to hold from the start.
		res.Checks++
		if !solver.SatBoxes(base, nil) {
			return res, nil
		}
		root := dc.pushPos(base)
		if err := dc.dfs(root, 0); err != nil {
			return res, err
		}
	default:
		return res, fmt.Errorf("cells: unknown strategy %v", opts.Strategy)
	}
	return res, nil
}

// decomposer carries the working state of one decomposition. The DFS path
// state lives in shared push/pop stacks rather than per-node slices: that
// removes the per-node allocations of the appended active/neg lists and the
// re-intersected prefix boxes, and it eliminates the slice-aliasing hazard
// of sharing append-grown backing arrays between the include and exclude
// branches (emit copies whatever escapes into a Cell).
type decomposer struct {
	solver  *sat.Solver
	boxes   []domain.Box
	kept    []int
	opts    Options
	res     *Result
	rewrite bool

	// posArena stacks the DFS prefix regions (one box pushed per include
	// decision); fixed capacity, so subslices never move.
	posArena []domain.Interval
	// active holds the local indices of included predicates on the DFS path.
	active []int
	// neg holds the boxes of excluded predicates on the DFS path.
	neg []domain.Box

	negScratch []domain.Box // emit's inactive-box list (reused per cell)
	esAct      []int        // early-stop scratch active list
	esBox      domain.Box   // early-stop scratch region
}

// pushPos copies b onto the prefix arena and returns the stacked copy.
func (dc *decomposer) pushPos(b domain.Box) domain.Box {
	off := len(dc.posArena)
	dc.posArena = append(dc.posArena, b...)
	return domain.Box(dc.posArena[off : off+len(b)])
}

// pushPosIntersect stacks pos ∩ box without heap allocation.
func (dc *decomposer) pushPosIntersect(pos, box domain.Box) domain.Box {
	off := len(dc.posArena)
	dc.posArena = append(dc.posArena, pos...)
	out := domain.Box(dc.posArena[off : off+len(pos)])
	for d := range out {
		out[d] = out[d].Intersect(box[d])
	}
	return out
}

func (dc *decomposer) popPos(b domain.Box) {
	dc.posArena = dc.posArena[:len(dc.posArena)-len(b)]
}

// naive checks each of the 2^n cells independently (no pruning); cells with
// an empty active set are skipped (they lie outside every predicate, which
// closure excludes).
func (dc *decomposer) naive(base domain.Box) error {
	n := len(dc.boxes)
	if n > 30 {
		return fmt.Errorf("cells: naive enumeration of 2^%d cells refused", n)
	}
	// Dedicated buffers: emit reuses the decomposer scratch slices, so the
	// enumeration state must not share them.
	activeBuf := make([]int, 0, n)
	posBuf := make(domain.Box, 0, len(base))
	negBuf := make([]domain.Box, 0, n)
	for mask := 1; mask < (1 << n); mask++ {
		active := activeBuf[:0]
		pos := append(posBuf[:0], base...)
		neg := negBuf[:0]
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				active = append(active, k)
				for d := range pos {
					pos[d] = pos[d].Intersect(dc.boxes[k][d])
				}
			} else {
				neg = append(neg, dc.boxes[k])
			}
		}
		dc.res.Checks++
		if dc.solver.SatBoxes(pos, neg) {
			if err := dc.emit(pos, active, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// dfs explores include/exclude decisions for predicate k given a satisfiable
// prefix (pos region minus dc.neg). The prefix is always known satisfiable
// on entry.
func (dc *decomposer) dfs(pos domain.Box, k int) error {
	n := len(dc.boxes)
	if k == n {
		if len(dc.active) == 0 {
			// Outside every predicate: excluded by closure.
			return nil
		}
		return dc.emit(pos, dc.active, true)
	}
	if dc.opts.EarlyStopLayer > 0 && k >= dc.opts.EarlyStopLayer {
		// Optimization 4: admit all remaining combinations unverified.
		return dc.earlyStopExpand(pos, k)
	}

	// Include branch: prefix ∧ ψk.
	incPos := dc.pushPosIntersect(pos, dc.boxes[k])
	dc.res.Checks++
	incSat := dc.solver.SatBoxes(incPos, dc.neg)
	if incSat {
		dc.active = append(dc.active, k)
		err := dc.dfs(incPos, k+1)
		dc.active = dc.active[:len(dc.active)-1]
		if err != nil {
			return err
		}
	} else {
		dc.res.PrunedSubtrees++
	}
	dc.popPos(incPos)

	// Exclude branch: prefix ∧ ¬ψk.
	dc.neg = append(dc.neg, dc.boxes[k])
	var err error
	switch {
	case !incSat && dc.rewrite:
		// Optimization 3: X sat ∧ (X∧Y unsat) ⇒ X∧¬Y sat; skip the check.
		dc.res.RewriteSkips++
		err = dc.dfs(pos, k+1)
	default:
		dc.res.Checks++
		if dc.solver.SatBoxes(pos, dc.neg) {
			err = dc.dfs(pos, k+1)
		} else {
			dc.res.PrunedSubtrees++
		}
	}
	dc.neg = dc.neg[:len(dc.neg)-1]
	return err
}

// earlyStopExpand emits every completion of the current prefix as an
// unverified cell.
func (dc *decomposer) earlyStopExpand(pos domain.Box, k int) error {
	n := len(dc.boxes)
	rem := n - k
	if rem > 30 {
		return fmt.Errorf("cells: early stop would expand 2^%d cells", rem)
	}
	for mask := 0; mask < (1 << rem); mask++ {
		act := append(dc.esAct[:0], dc.active...)
		cur := append(dc.esBox[:0], pos...)
		empty := false
		for j := 0; j < rem; j++ {
			if mask&(1<<j) != 0 {
				act = append(act, k+j)
				for d := range cur {
					cur[d] = cur[d].Intersect(dc.boxes[k+j][d])
				}
				if cur.Empty() {
					// Cheap local reject: positive intersection already empty
					// (this is not a solver call).
					empty = true
					break
				}
			}
		}
		if empty || len(act) == 0 {
			continue
		}
		if err := dc.emit(cur, act, false); err != nil {
			return err
		}
	}
	return nil
}

// emit records one satisfiable cell. region is the prefix box maintained
// incrementally by the search (bit-identical to re-intersecting the active
// boxes from scratch, since interval intersection is exact min/max);
// activeLocal lists the included predicates by local index, ascending.
func (dc *decomposer) emit(region domain.Box, activeLocal []int, verified bool) error {
	if dc.opts.MaxCells > 0 && len(dc.res.Cells) >= dc.opts.MaxCells {
		return ErrTooManyCells
	}
	n := len(dc.boxes)
	active := make([]int, len(activeLocal))
	neg := dc.negScratch[:0]
	// Two-pointer merge over the ascending activeLocal list: predicates not
	// on it are the cell's negated boxes.
	ai := 0
	for k := 0; k < n; k++ {
		if ai < len(activeLocal) && activeLocal[ai] == k {
			active[ai] = dc.kept[k]
			ai++
		} else {
			neg = append(neg, dc.boxes[k])
		}
	}
	regionOut := region.Clone()
	proj := region.Clone()
	if !dc.opts.SkipProjections && verified {
		boxesRem := dc.solver.RemainderBoxes(regionOut, neg)
		if len(boxesRem) == 0 {
			// Region became empty under exact projection: skip the cell.
			return nil
		}
		for d := range proj {
			iv := boxesRem[0][d]
			for _, rb := range boxesRem[1:] {
				iv = iv.Hull(rb[d])
			}
			proj[d] = iv
		}
	}
	dc.res.Cells = append(dc.res.Cells, Cell{
		Active:     active,
		Region:     regionOut,
		Projection: proj,
		Verified:   verified,
	})
	return nil
}

// UpperValue returns the tightest upper bound on attribute attr for rows in
// the cell, combining the active PCs' value-constraint bounds with the
// cell's exact region projection. valueBoxes[i] is predicate i's value
// constraint ν.
func (c *Cell) UpperValue(attrIdx int, valueBoxes []domain.Box) float64 {
	u := c.Projection[attrIdx].Hi
	for _, i := range c.Active {
		if h := valueBoxes[i][attrIdx].Hi; h < u {
			u = h
		}
	}
	return u
}

// LowerValue is the dual of UpperValue.
func (c *Cell) LowerValue(attrIdx int, valueBoxes []domain.Box) float64 {
	l := c.Projection[attrIdx].Lo
	for _, i := range c.Active {
		if lo := valueBoxes[i][attrIdx].Lo; lo > l {
			l = lo
		}
	}
	return l
}

// MaxCount returns the tightest per-cell cardinality cap implied by the
// active PCs' frequency upper bounds.
func (c *Cell) MaxCount(kHi []float64) float64 {
	u := math.Inf(1)
	for _, i := range c.Active {
		if kHi[i] < u {
			u = kHi[i]
		}
	}
	return u
}
