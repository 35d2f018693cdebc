package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/milp"
	"pcbound/internal/predicate"
	"pcbound/internal/sched"
)

// These tests pin the intra-query parallelism contract: Range results from
// the scheduler path (per-cell tasks fanned out over a shared cost-ordered
// scheduler, solve memo on) are bit-identical to the sequential reference
// path (SequentialCells, no decomposition cache and so no memo) at every
// parallelism level, for all five aggregates and for group-by.

// schedWorkerCounts are the scheduler widths the differential tests sweep:
// caller-only (parallelism 1), one worker (parallelism 2), and NumCPU.
func schedWorkerCounts() []int {
	counts := []int{0, 1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	} else {
		counts = append(counts, 4) // oversubscribed on 1 CPU: interleaving still must not matter
	}
	return counts
}

// coupledSet is overlappingSet: its frequency lower bounds survive pushdown
// for wide queries, exercising memoized reachability solves. uncoupledSet
// has kLo=0 everywhere, exercising closed-form reachability.
func uncoupledSet(t testing.TB) *Set {
	t.Helper()
	s := salesSchema()
	set := NewSet(s)
	set.MustAdd(
		MustPC(predicate.NewBuilder(s).Range("utc", 0, 12).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(1, 40)}, 0, 9),
		MustPC(predicate.NewBuilder(s).Range("utc", 5, 20).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(3, 60)}, 0, 7),
		MustPC(predicate.NewBuilder(s).Range("utc", 10, 30).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(0, 25)}, 0, 5),
		MustPC(predicate.NewBuilder(s).Range("branch", 1, 2).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(10, 100)}, 0, 6),
	)
	return set
}

// TestIntraQueryBitIdentical: for every aggregate and a mix of regions, the
// scheduler path at parallelism 1, 2, and NumCPU returns Ranges
// bit-identical to the sequential reference — cold and again warm (second
// pass served by the solve memo).
func TestIntraQueryBitIdentical(t *testing.T) {
	for _, mk := range []struct {
		name string
		set  func(testing.TB) *Set
	}{{"coupled", overlappingSet}, {"uncoupled", uncoupledSet}} {
		t.Run(mk.name, func(t *testing.T) {
			set := mk.set(t)
			queries := batchWorkload(set.Schema())
			ref := NewEngine(set, nil, Options{
				DisableFastPath: true, SequentialCells: true, DisableDecompCache: true,
			})
			want := make([]Range, len(queries))
			for i, q := range queries {
				var err error
				want[i], err = ref.Bound(q)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range schedWorkerCounts() {
				t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
					sch := sched.New(workers)
					defer sch.Close()
					eng := NewEngine(set, nil, Options{DisableFastPath: true, Scheduler: sch})
					for pass := 0; pass < 2; pass++ {
						for i, q := range queries {
							got, err := eng.Bound(q)
							if err != nil {
								t.Fatal(err)
							}
							if got != want[i] {
								t.Fatalf("pass %d query %d (%s): scheduler range %+v != sequential %+v",
									pass, i, q, got, want[i])
							}
						}
					}
					if pass2 := eng.CacheStats(); pass2.MemoHits == 0 {
						t.Fatalf("second pass produced no solve-memo hits: %+v", pass2)
					}
				})
			}
		})
	}
}

// TestGroupByBitIdenticalAndShared: group-by over the scheduler+memo path
// matches per-group sequential bounds bit-identically when groups slice an
// unconstrained attribute and so share their cells' structure (their
// reachability is answered in closed form, with no solve to share).
func TestGroupByBitIdenticalAndShared(t *testing.T) {
	set := uncoupledSet(t)
	s := set.Schema()
	// Groups slice the aggregated attribute; the constraints' predicates
	// live on utc/branch, so every group sees the same active sets and
	// frequency windows.
	var groups []*predicate.P
	for g := 0; g < 6; g++ {
		groups = append(groups, predicate.NewBuilder(s).
			Range("price", float64(g*100), float64(g*100+99)).Build())
	}
	q := Query{Agg: Min, Attr: "price",
		Where: predicate.NewBuilder(s).Range("utc", 2, 18).Build()}

	ref := NewEngine(set, nil, Options{
		DisableFastPath: true, SequentialCells: true, DisableDecompCache: true,
	})
	want, err := ref.GroupBy(q, groups)
	if err != nil {
		t.Fatal(err)
	}

	sch := sched.New(2)
	defer sch.Close()
	eng := NewEngine(set, nil, Options{DisableFastPath: true, Scheduler: sch})
	got, err := eng.GroupBy(q, groups)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Range != want[i].Range {
			t.Fatalf("group %d: scheduler range %+v != sequential %+v", i, got[i].Range, want[i].Range)
		}
	}
}

// TestUnknownAggregateErrorNamesQuery: the Bound error for an out-of-range
// aggregate identifies the whole query, not just the aggregate code.
func TestUnknownAggregateErrorNamesQuery(t *testing.T) {
	set := overlappingSet(t)
	eng := NewEngine(set, nil, Options{})
	where := predicate.NewBuilder(set.Schema()).Range("utc", 1, 4).Build()
	_, err := eng.Bound(Query{Agg: Agg(42), Attr: "price", Where: where})
	if err == nil {
		t.Fatal("Bound accepted an unknown aggregate")
	}
	for _, frag := range []string{"Agg(42)", "price", "utc", "COUNT, SUM, AVG, MIN or MAX"} {
		if !contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestCellCacheMutateReboundDifferential is the randomized correctness
// gauntlet for the solve memo kept in the decomposition cache: a store
// mutates through random add/remove/replace epochs while one warm engine
// lineage (Rebind, shared cache) keeps answering a fixed workload; after
// every epoch each Range must be bit-identical to a cold sequential engine
// built from scratch, with no cache, on the same store state.
func TestCellCacheMutateReboundDifferential(t *testing.T) {
	s := salesSchema()
	rng := rand.New(rand.NewSource(7))
	store := NewStore(s)
	newPC := func() PC {
		lo := rng.Float64() * 20
		w := 4 + rng.Float64()*12
		vlo := rng.Float64() * 50
		return MustPC(
			predicate.NewBuilder(s).Range("utc", lo, lo+w).Build(),
			map[string]domain.Interval{"price": domain.NewInterval(vlo, vlo+10+rng.Float64()*40)},
			rng.Intn(2), 2+rng.Intn(6),
		)
	}
	var pcs []PC
	for i := 0; i < 8; i++ {
		pcs = append(pcs, newPC())
	}
	ids, err := store.AddPCs(pcs...)
	if err != nil {
		t.Fatal(err)
	}

	queries := batchWorkload(s)
	sch := sched.New(2)
	defer sch.Close()
	warm := NewEngine(store, nil, Options{DisableFastPath: true, Scheduler: sch})

	for epoch := 0; epoch < 12; epoch++ {
		switch op := rng.Intn(3); {
		case op == 0 || len(ids) < 4:
			got, err := store.AddPCs(newPC())
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, got...)
		case op == 1:
			k := rng.Intn(len(ids))
			if err := store.Remove(ids[k]); err != nil {
				t.Fatal(err)
			}
			ids = append(ids[:k], ids[k+1:]...)
		default:
			k := rng.Intn(len(ids))
			if err := store.Replace(ids[k], newPC()); err != nil {
				t.Fatal(err)
			}
		}
		warm = warm.Rebind()
		cold := NewEngine(store, nil, Options{
			DisableFastPath: true, SequentialCells: true, DisableDecompCache: true,
		})
		for i, q := range queries {
			got, err := warm.Bound(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Bound(q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("epoch %d query %d (%s): warm cached range %+v != cold range %+v",
					epoch, i, q, got, want)
			}
		}
	}
	cs := warm.CacheStats()
	if cs.MemoHits == 0 {
		t.Fatalf("mutate→rebound run produced no solve-memo hits: %+v", cs)
	}
	if cs.Retained == 0 {
		t.Fatalf("scoped invalidation never retained a decomposition across epochs: %+v", cs)
	}
}

// TestClosedFormReachMatchesSolver: with no active frequency lower bound the
// engine answers "can cell i host a row" as capHi[i] >= 1 instead of
// solving a MILP. On random uncoupled stores cellFeas's verdict must equal
// the solver's decided verdict on every cell, over Integral and Continuous
// predicate attributes, constraints with KHi = 0, infinite caps (the same
// problems with some frequency upper bounds lifted to +Inf) and
// early-stopped, unverified cells.
func TestClosedFormReachMatchesSolver(t *testing.T) {
	s := domain.NewSchema(
		domain.Attr{Name: "x", Kind: domain.Integral, Domain: domain.NewInterval(0, 9)},
		domain.Attr{Name: "y", Kind: domain.Continuous, Domain: domain.NewInterval(0, 10)},
	)
	rng := rand.New(rand.NewSource(11))
	region := func() *predicate.P {
		xa, xb := rng.Intn(10), rng.Intn(10)
		if xa > xb {
			xa, xb = xb, xa
		}
		ya := rng.Float64() * 8
		return predicate.NewBuilder(s).Range("x", float64(xa), float64(xb)).
			Range("y", ya, ya+1+rng.Float64()*6).Build()
	}
	sc := &solveCtx{}
	var cellsSeen, zeroCaps, infCaps, unverified int
	check := func(e *Engine, cp *cellProblem, trial int) {
		if cp.coupled {
			t.Fatalf("trial %d: problem with no frequency lower bound is coupled", trial)
		}
		reach := make([]bool, len(cp.cells))
		rn := e.newRunner(cp, nil, sc)
		rn.cellFeas(cp.idxAll, reach)
		for i := range cp.cells {
			ok, decided := cp.feasibleStatus(sc, nil, false, i, milp.Options{})
			if !decided {
				t.Fatalf("trial %d cell %d: solver verdict undecided", trial, i)
			}
			if reach[i] != ok {
				t.Fatalf("trial %d cell %d (cap %v, active %v): closed form %v, solver %v",
					trial, i, cp.capHi[i], cp.cells[i].Active, reach[i], ok)
			}
			cellsSeen++
			switch {
			case cp.capHi[i] == 0:
				zeroCaps++
			case math.IsInf(cp.capHi[i], 1):
				infCaps++
			}
			if !cp.cells[i].Verified {
				unverified++
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		set := NewSet(s)
		for j, n := 0, 2+rng.Intn(5); j < n; j++ {
			vlo := rng.Float64() * 5
			set.MustAdd(MustPC(region(),
				map[string]domain.Interval{"y": domain.NewInterval(vlo, vlo+rng.Float64()*5)},
				0, rng.Intn(4)))
		}
		opts := Options{DisableFastPath: true}
		if trial%3 == 0 {
			opts.Cells.EarlyStopLayer = 1
		}
		e := NewEngine(set, nil, opts)
		for qi := 0; qi < 3; qi++ {
			var where *predicate.P
			if qi > 0 {
				where = region()
			}
			cp, _, err := e.decompose(where)
			if err != nil {
				t.Fatal(err)
			}
			check(e, cp, trial)
			lift := map[int]bool{}
			for _, j := range cp.consIdx {
				lift[j] = rng.Intn(2) == 0
			}
			check(e, withInfiniteKHi(cp, lift), trial)
		}
	}
	t.Logf("%d cells: %d with cap 0, %d with an infinite cap, %d unverified", cellsSeen, zeroCaps, infCaps, unverified)
	if zeroCaps == 0 || infCaps == 0 || unverified == 0 {
		t.Fatalf("generator missed a case: %d cells, %d with cap 0, %d infinite, %d unverified",
			cellsSeen, zeroCaps, infCaps, unverified)
	}
}

// withInfiniteKHi returns cp with the frequency upper bounds of the
// constraints in lift raised to +Inf and the cell caps recomputed.
func withInfiniteKHi(cp *cellProblem, lift map[int]bool) *cellProblem {
	kHi := make(map[int]float64, len(cp.kHi))
	vec := make([]float64, len(cp.valueBoxes))
	for j, v := range cp.kHi {
		if lift[j] {
			v = math.Inf(1)
		}
		kHi[j], vec[j] = v, v
	}
	capHi := make([]float64, len(cp.cells))
	for i := range cp.cells {
		capHi[i] = cp.cells[i].MaxCount(vec)
	}
	return &cellProblem{
		schema: cp.schema, cells: cp.cells, cellsOf: cp.cellsOf, kLo: cp.kLo, kHi: kHi,
		valueBoxes: cp.valueBoxes, capHi: capHi,
		consIdx: cp.consIdx, onesVal: cp.onesVal, idxAll: cp.idxAll,
	}
}
