package core

import (
	"math"
	"math/rand"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
)

// TestPaperDisjointExample reproduces Section 4.4's disjoint PC example:
//
//	t1: utc = 11 => 0.99 <= price <= 129.99, (50, 100)
//	t2: utc = 12 => 0.99 <= price <= 149.99, (50, 100)
//
// SUM(price) range must be [99.00, 27998.00].
func TestPaperDisjointExample(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Eq("utc", 11).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0.99, 129.99)}, 50, 100),
		MustPC(predicate.NewBuilder(s).Eq("utc", 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0.99, 149.99)}, 50, 100),
	)
	for _, disableFast := range []bool{false, true} {
		e := NewEngine(set, nil, Options{DisableFastPath: disableFast})
		r, err := e.Sum("price", nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Lo-99.00) > 1e-6 || math.Abs(r.Hi-27998.00) > 1e-6 {
			t.Errorf("fast=%v: SUM range = %v, want [99, 27998]", !disableFast, r)
		}
		c, err := e.Count(nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.Lo != 100 || c.Hi != 200 {
			t.Errorf("fast=%v: COUNT range = %v, want [100, 200]", !disableFast, c)
		}
	}
}

// TestPaperOverlappingExample reproduces Section 4.4's overlapping example:
//
//	t1: utc = 11        => 0.99 <= price <= 129.99, (50, 100)
//	t2: 11 <= utc <= 12 => 0.99 <= price <= 149.99, (75, 125)
//
// SUM(price) range must be [74.25, 17748.75].
func TestPaperOverlappingExample(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Eq("utc", 11).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0.99, 129.99)}, 50, 100),
		MustPC(predicate.NewBuilder(s).Range("utc", 11, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0.99, 149.99)}, 75, 125),
	)
	e := NewEngine(set, nil, Options{})
	r, err := e.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Lo-74.25) > 1e-6 {
		t.Errorf("SUM lower = %v, want 74.25", r.Lo)
	}
	if math.Abs(r.Hi-17748.75) > 1e-6 {
		t.Errorf("SUM upper = %v, want 17748.75", r.Hi)
	}
	if !r.LoExact || !r.HiExact {
		t.Errorf("expected exact endpoints, got %+v", r)
	}
	if r.Cells != 2 {
		t.Errorf("Cells = %d, want 2 (c3 unsatisfiable)", r.Cells)
	}
}

// TestInteractingConstraints reproduces the paper's c1/c2 interaction
// (Section 3.1): a global cap interacts with a per-branch cap.
func TestInteractingConstraints(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		// c1: Chicago (branch 0): price <= 149.99, at most 5 rows.
		MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 149.99)}, 0, 5),
		// c2: all branches: price <= 149.99, at most 100 rows.
		MustPC(predicate.True(s),
			map[string]domain.Interval{"price": domain.NewInterval(0, 149.99)}, 0, 100),
	)
	e := NewEngine(set, nil, Options{})
	// COUNT of Chicago rows is capped at 5 by c1 even though c2 allows 100.
	chicago := predicate.NewBuilder(s).Eq("branch", 0).Build()
	r, err := e.Count(chicago)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hi != 5 {
		t.Errorf("Chicago COUNT upper = %v, want 5 (most restrictive wins)", r.Hi)
	}
	// Global count is capped at 100.
	all, err := e.Count(nil)
	if err != nil {
		t.Fatal(err)
	}
	if all.Hi != 100 {
		t.Errorf("global COUNT upper = %v, want 100", all.Hi)
	}
	// Global SUM: 100 rows at 149.99.
	sum, err := e.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Hi-100*149.99) > 1e-6 {
		t.Errorf("SUM upper = %v, want %v", sum.Hi, 100*149.99)
	}
}

func TestQueryPushdownPartialOverlap(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	// One PC spanning days 10-13 with forced rows (klo=40).
	set.MustAdd(MustPC(predicate.NewBuilder(s).Range("utc", 10, 13).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(1, 10)}, 40, 40))
	e := NewEngine(set, nil, Options{})
	// Query covers only days 10-11: the 40 forced rows may all live on days
	// 12-13, so the COUNT lower bound must be 0 — but at most 40 can be in
	// range.
	q := predicate.NewBuilder(s).Range("utc", 10, 11).Build()
	r, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lo != 0 {
		t.Errorf("partial-overlap COUNT lower = %v, want 0", r.Lo)
	}
	if r.Hi != 40 {
		t.Errorf("partial-overlap COUNT upper = %v, want 40", r.Hi)
	}
	// Query covering the full predicate keeps the forced lower bound.
	qFull := predicate.NewBuilder(s).Range("utc", 9, 14).Build()
	r2, err := e.Count(qFull)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Lo != 40 || r2.Hi != 40 {
		t.Errorf("full-overlap COUNT = %v, want [40, 40]", r2)
	}
}

func TestQueryOutsideAllPCs(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(MustPC(predicate.NewBuilder(s).Range("utc", 10, 13).Build(), nil, 0, 10))
	e := NewEngine(set, nil, Options{})
	q := predicate.NewBuilder(s).Range("utc", 20, 25).Build()
	r, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Lo != 0 || r.Hi != 0 {
		t.Errorf("no-overlap COUNT = %v, want [0, 0]", r)
	}
	sum, err := e.Sum("price", q)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Lo != 0 || sum.Hi != 0 {
		t.Errorf("no-overlap SUM = %v, want [0, 0]", sum)
	}
	// MIN/MAX/AVG have no possible value there.
	mx, err := e.Max("price", q)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Contains(5) || !mx.MaybeEmpty {
		t.Errorf("no-overlap MAX = %+v, want empty range", mx)
	}
}

func TestAvgBinarySearch(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		// 10 forced cheap rows and up to 5 optional expensive rows.
		MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, 1)}, 10, 10),
		MustPC(predicate.NewBuilder(s).Eq("branch", 1).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(100, 100)}, 0, 5),
	)
	for _, disableFast := range []bool{false, true} {
		e := NewEngine(set, nil, Options{DisableFastPath: disableFast})
		r, err := e.Avg("price", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Max avg: (10·1 + 5·100)/15 = 34; min avg: all forced rows at 1.
		if math.Abs(r.Hi-34) > 1e-3 {
			t.Errorf("fast=%v: AVG upper = %v, want 34", !disableFast, r.Hi)
		}
		if math.Abs(r.Lo-1) > 1e-3 {
			t.Errorf("fast=%v: AVG lower = %v, want 1", !disableFast, r.Lo)
		}
		if r.MaybeEmpty {
			t.Errorf("fast=%v: 10 forced rows: not maybe-empty", !disableFast)
		}
	}
}

func TestMinMax(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(10, 150)}, 2, 5),
		MustPC(predicate.NewBuilder(s).Eq("branch", 1).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(50, 300)}, 0, 5),
	)
	for _, disableFast := range []bool{false, true} {
		e := NewEngine(set, nil, Options{DisableFastPath: disableFast})
		mx, err := e.Max("price", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Sup max: a row in branch 1 at 300. Inf max: forced branch-0 rows
		// at 10 and nothing else -> 10.
		if mx.Hi != 300 || mx.Lo != 10 {
			t.Errorf("fast=%v: MAX = %v, want [10, 300]", !disableFast, mx)
		}
		if mx.MaybeEmpty {
			t.Errorf("fast=%v: forced rows exist", !disableFast)
		}
		mn, err := e.Min("price", nil)
		if err != nil {
			t.Fatal(err)
		}
		// Inf min: branch-0 row at 10. Sup min: forced rows at 150 max, so
		// the minimum can be at most 150.
		if mn.Lo != 10 || mn.Hi != 150 {
			t.Errorf("fast=%v: MIN = %v, want [10, 150]", !disableFast, mn)
		}
	}
}

func TestMaxNoForcedRows(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(10, 150)}, 0, 5))
	for _, disableFast := range []bool{false, true} {
		e := NewEngine(set, nil, Options{DisableFastPath: disableFast})
		mx, err := e.Max("price", nil)
		if err != nil {
			t.Fatal(err)
		}
		if !mx.MaybeEmpty {
			t.Errorf("fast=%v: zero rows possible, MaybeEmpty should be set", !disableFast)
		}
		if mx.Hi != 150 || mx.Lo != 10 {
			t.Errorf("fast=%v: MAX = %v, want [10, 150] conditional on non-empty", !disableFast, mx)
		}
	}
}

func TestReconciliationOfConflictingConstraints(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	// Conflict: the inner PC forces at least 10 Chicago rows, the outer one
	// allows at most 5 rows anywhere.
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Eq("branch", 0).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 10, 20),
		MustPC(predicate.True(s),
			map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 0, 5),
	)
	e := NewEngine(set, nil, Options{})
	r, err := e.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Reconciled {
		t.Error("conflicting lower bounds should trigger reconciliation")
	}
	// The most restrictive upper bounds still apply: at most 5 rows at 100.
	if r.Hi != 500 {
		t.Errorf("SUM upper = %v, want 500", r.Hi)
	}
}

func TestFastPathMatchesGeneralOnRandomDisjointSets(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		set := NewSet(s)
		nPC := 2 + rng.Intn(4)
		day := 0
		for i := 0; i < nPC; i++ {
			span := 1 + rng.Intn(3)
			lo := 1 + rng.Float64()*50
			hi := lo + rng.Float64()*100
			klo := rng.Intn(5)
			khi := klo + rng.Intn(10)
			set.MustAdd(MustPC(
				predicate.NewBuilder(s).Range("utc", float64(day), float64(day+span-1)).Build(),
				map[string]domain.Interval{"price": domain.NewInterval(lo, hi)},
				klo, khi))
			day += span
		}
		if !set.Disjoint() {
			t.Fatal("construction should be disjoint")
		}
		var queries []*predicate.P
		queries = append(queries, nil,
			predicate.NewBuilder(s).Range("utc", 0, float64(rng.Intn(10))).Build())
		for _, q := range queries {
			fast := NewEngine(set, nil, Options{})
			slow := NewEngine(set, nil, Options{DisableFastPath: true})
			for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
				qy := Query{Agg: agg, Attr: "price", Where: q}
				rf, err := fast.Bound(qy)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := slow.Bound(qy)
				if err != nil {
					t.Fatal(err)
				}
				tol := 1e-5 * (1 + math.Abs(rs.Hi) + math.Abs(rs.Lo))
				loDiff := math.Abs(rf.Lo - rs.Lo)
				hiDiff := math.Abs(rf.Hi - rs.Hi)
				// Empty ranges compare by emptiness.
				if rf.Lo > rf.Hi && rs.Lo > rs.Hi {
					continue
				}
				if loDiff > tol || hiDiff > tol {
					t.Errorf("trial %d agg %v: fast %v vs general %v", trial, agg, rf, rs)
				}
			}
		}
	}
}

// TestRandomizedSoundness generates random ground-truth instances, derives
// PCs that the instance satisfies by construction, and checks that every
// aggregate of the instance falls inside the engine's hard range — the
// paper's central guarantee.
func TestRandomizedSoundness(t *testing.T) {
	s := domain.NewSchema(
		domain.Attr{Name: "x", Kind: domain.Integral, Domain: domain.NewInterval(0, 9)},
		domain.Attr{Name: "v", Kind: domain.Continuous, Domain: domain.NewInterval(0, 100)},
	)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		// Ground-truth missing rows.
		n := 1 + rng.Intn(30)
		rows := make([]domain.Row, n)
		for i := range rows {
			rows[i] = domain.Row{float64(rng.Intn(10)), rng.Float64() * 100}
		}
		// Overlapping PCs derived from the instance: random x-ranges with
		// exact counts and value hulls.
		set := NewSet(s)
		nPC := 1 + rng.Intn(4)
		for i := 0; i < nPC; i++ {
			a, b := rng.Intn(10), rng.Intn(10)
			if a > b {
				a, b = b, a
			}
			pred := predicate.NewBuilder(s).Range("x", float64(a), float64(b)).Build()
			cnt := 0
			vlo, vhi := math.Inf(1), math.Inf(-1)
			for _, r := range rows {
				if pred.Eval(r) {
					cnt++
					vlo = math.Min(vlo, r[1])
					vhi = math.Max(vhi, r[1])
				}
			}
			if cnt == 0 {
				vlo, vhi = 0, 100
			}
			set.MustAdd(MustPC(pred, map[string]domain.Interval{"v": domain.NewInterval(vlo, vhi)}, cnt, cnt))
		}
		// Catch-all for closure.
		set.MustAdd(MustPC(predicate.True(s), nil, 0, n))
		if errs := set.Validate(rows); len(errs) != 0 {
			t.Fatalf("trial %d: derived PCs not satisfied: %v", trial, errs)
		}

		e := NewEngine(set, nil, Options{})
		// Random queries, including the full domain.
		for qi := 0; qi < 4; qi++ {
			var where *predicate.P
			if qi > 0 {
				a, b := rng.Intn(10), rng.Intn(10)
				if a > b {
					a, b = b, a
				}
				where = predicate.NewBuilder(s).Range("x", float64(a), float64(b)).Build()
			}
			var match []float64
			for _, r := range rows {
				if where == nil || where.Eval(r) {
					match = append(match, r[1])
				}
			}
			count := float64(len(match))
			sum := 0.0
			mn, mx := math.Inf(1), math.Inf(-1)
			for _, v := range match {
				sum += v
				mn = math.Min(mn, v)
				mx = math.Max(mx, v)
			}

			rc, err := e.Count(where)
			if err != nil {
				t.Fatal(err)
			}
			if !rc.Contains(count) {
				t.Fatalf("trial %d q%d: COUNT %v outside %v", trial, qi, count, rc)
			}
			rsum, err := e.Sum("v", where)
			if err != nil {
				t.Fatal(err)
			}
			if !rsum.Contains(sum) {
				t.Fatalf("trial %d q%d: SUM %v outside %v", trial, qi, sum, rsum)
			}
			if len(match) > 0 {
				ravg, err := e.Avg("v", where)
				if err != nil {
					t.Fatal(err)
				}
				if !ravg.Contains(sum / count) {
					t.Fatalf("trial %d q%d: AVG %v outside %v", trial, qi, sum/count, ravg)
				}
				rmin, err := e.Min("v", where)
				if err != nil {
					t.Fatal(err)
				}
				if !rmin.Contains(mn) {
					t.Fatalf("trial %d q%d: MIN %v outside %v", trial, qi, mn, rmin)
				}
				rmax, err := e.Max("v", where)
				if err != nil {
					t.Fatal(err)
				}
				if !rmax.Contains(mx) {
					t.Fatalf("trial %d q%d: MAX %v outside %v", trial, qi, mx, rmax)
				}
			}
		}
	}
}

// TestNodeCapSoundness is TestRandomizedSoundness under a one-node MILP
// budget on a 2-D integral schema, where overlapping boxes give fractional
// LP vertices and many feasibility probes stop at the node cap with no
// incumbent. Such an undecided probe must count as feasible: a cell it
// could not rule out stays reachable for MIN/MAX, a threshold stays
// eligible, and AVG does not report that no row can exist.
func TestNodeCapSoundness(t *testing.T) {
	s := domain.NewSchema(
		domain.Attr{Name: "x", Kind: domain.Integral, Domain: domain.NewInterval(0, 9)},
		domain.Attr{Name: "y", Kind: domain.Integral, Domain: domain.NewInterval(0, 9)},
	)
	rng := rand.New(rand.NewSource(5))
	span := func() (float64, float64) {
		a, b := rng.Intn(10), rng.Intn(10)
		if a > b {
			a, b = b, a
		}
		return float64(a), float64(b)
	}
	box := func() *predicate.P {
		xa, xb := span()
		ya, yb := span()
		return predicate.NewBuilder(s).Range("x", xa, xb).Range("y", ya, yb).Build()
	}
	opts := Options{}
	opts.MILP.MaxNodes = 1
	checked := 0
	for trial := 0; trial < 400; trial++ {
		rows := make([]domain.Row, 1+rng.Intn(30))
		for i := range rows {
			rows[i] = domain.Row{float64(rng.Intn(10)), float64(rng.Intn(10))}
		}
		set := NewSet(s)
		for i, nPC := 0, 2+rng.Intn(5); i < nPC; i++ {
			pred := box()
			cnt := 0
			vlo, vhi := math.Inf(1), math.Inf(-1)
			for _, r := range rows {
				if pred.Eval(r) {
					cnt++
					vlo, vhi = math.Min(vlo, r[1]), math.Max(vhi, r[1])
				}
			}
			if cnt == 0 {
				vlo, vhi = 0, 9
			}
			set.MustAdd(MustPC(pred, map[string]domain.Interval{"y": domain.NewInterval(vlo, vhi)}, cnt, cnt))
		}
		set.MustAdd(MustPC(predicate.True(s), nil, 0, len(rows)))
		if errs := set.Validate(rows); len(errs) != 0 {
			t.Fatalf("trial %d: derived PCs not satisfied: %v", trial, errs)
		}
		e := NewEngine(set, nil, opts)
		for qi := 0; qi < 4; qi++ {
			var where *predicate.P
			if qi > 0 {
				where = box()
			}
			var match []float64
			for _, r := range rows {
				if where == nil || where.Eval(r) {
					match = append(match, r[1])
				}
			}
			sum, mn, mx := 0.0, math.Inf(1), math.Inf(-1)
			for _, v := range match {
				sum += v
				mn, mx = math.Min(mn, v), math.Max(mx, v)
			}
			truth := map[Agg]float64{Count: float64(len(match)), Sum: sum}
			if len(match) > 0 {
				truth[Avg], truth[Min], truth[Max] = sum/float64(len(match)), mn, mx
			}
			for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
				want, ok := truth[agg]
				if !ok {
					continue
				}
				r, err := e.Bound(Query{Agg: agg, Attr: "y", Where: where})
				if err != nil {
					t.Fatal(err)
				}
				checked++
				if !r.Contains(want) {
					t.Errorf("trial %d q%d: %v %v outside %v", trial, qi, agg, want, r)
				}
			}
		}
	}
	t.Logf("checked %d ranges", checked)
}

func TestEarlyStoppingSoundButLooser(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(3))
	set := NewSet(s)
	for i := 0; i < 7; i++ {
		lo := float64(rng.Intn(20))
		set.MustAdd(MustPC(
			predicate.NewBuilder(s).Range("utc", lo, lo+float64(3+rng.Intn(8))).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, float64(10+rng.Intn(100)))},
			0, 10+rng.Intn(20)))
	}
	exact := NewEngine(set, nil, Options{DisableFastPath: true})
	re, err := exact.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	approx := NewEngine(set, nil, Options{DisableFastPath: true})
	approx.opts.Cells.EarlyStopLayer = 2
	ra, err := approx.Sum("price", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The approximation must contain the exact range.
	if ra.Hi < re.Hi-1e-6 || ra.Lo > re.Lo+1e-6 {
		t.Errorf("early-stop range %v does not contain exact %v", ra, re)
	}
	if ra.SATChecks >= re.SATChecks {
		t.Errorf("early stopping should reduce SAT checks: %d vs %d", ra.SATChecks, re.SATChecks)
	}
}

func TestBoundDispatchAndAggString(t *testing.T) {
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(MustPC(predicate.True(s), map[string]domain.Interval{"price": domain.NewInterval(0, 10)}, 0, 5))
	e := NewEngine(set, nil, Options{})
	for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
		if _, err := e.Bound(Query{Agg: agg, Attr: "price"}); err != nil {
			t.Errorf("%v: %v", agg, err)
		}
		if agg.String() == "" {
			t.Error("empty agg string")
		}
	}
	if _, err := e.Bound(Query{Agg: Agg(99)}); err == nil {
		t.Error("unknown aggregate accepted")
	}
}

func TestRangeHelpers(t *testing.T) {
	r := Range{Lo: 1, Hi: 3}
	if !r.Contains(2) || !r.Contains(1) || !r.Contains(3) || r.Contains(4) {
		t.Error("Contains wrong")
	}
	if r.Width() != 2 {
		t.Error("Width wrong")
	}
	if r.String() == "" {
		t.Error("empty string")
	}
	er := emptyRange()
	if er.Contains(0) {
		t.Error("empty range contains value")
	}
}
