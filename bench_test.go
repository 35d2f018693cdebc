package pcbound_test

// One benchmark per paper table/figure (deliverable d), plus ablation
// benchmarks for the implementation's key design decisions. Benchmarks run
// the same experiment code as cmd/pcbench at a reduced "quick" scale and
// report the headline metric of each figure through b.ReportMetric, so
// `go test -bench=.` regenerates every result series.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pcbound/internal/cells"
	"pcbound/internal/core"
	"pcbound/internal/data"
	"pcbound/internal/domain"
	"pcbound/internal/experiments"
	"pcbound/internal/join"
	"pcbound/internal/pcgen"
	"pcbound/internal/predicate"
	"pcbound/internal/sat"
	"pcbound/internal/sched"
	"pcbound/internal/workload"
)

func benchCfg() experiments.Config { return experiments.Quick() }

func runExperiment(b *testing.B, name string, metrics ...string) {
	b.Helper()
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run(name, benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range metrics {
		if v, ok := res.Series[m]; ok {
			b.ReportMetric(v, sanitize(m))
		}
	}
}

func sanitize(m string) string {
	out := []rune(m)
	for i, r := range out {
		if r == ' ' {
			out[i] = '_'
		}
	}
	return string(out)
}

func BenchmarkFig1Extrapolation(b *testing.B) {
	runExperiment(b, "fig1", "relerr/0.5", "relerr/0.9")
}

func BenchmarkFig3Count(b *testing.B) {
	runExperiment(b, "fig3", "fail/Corr-PC/0.5", "over/Corr-PC/0.5", "over/Rand-PC/0.5")
}

func BenchmarkFig4Sum(b *testing.B) {
	runExperiment(b, "fig4", "fail/Corr-PC/0.5", "over/Corr-PC/0.5", "over/Rand-PC/0.5")
}

func BenchmarkTable1Confidence(b *testing.B) {
	runExperiment(b, "table1", "fail/US-1n/99.99", "over/US-1n/99.99", "over/Corr-PC")
}

func BenchmarkFig5SampleSize(b *testing.B) {
	runExperiment(b, "fig5", "over/SUM/US-1N", "over/SUM/US-10N", "over/SUM/Corr-PC")
}

func BenchmarkFig6Noise(b *testing.B) {
	runExperiment(b, "fig6", "fail/Corr-PC/3sd", "fail/Overlapping-PC/3sd", "fail/US-10n/3sd")
}

func BenchmarkFig7CellDecomposition(b *testing.B) {
	runExperiment(b, "fig7",
		"checks/No Optimization", "checks/DFS", "checks/DFS + Re-writing")
}

func BenchmarkFig8PartitionScaling(b *testing.B) {
	runExperiment(b, "fig8", "latency_us/50", "latency_us/2000")
}

func BenchmarkFig9MinMaxAvg(b *testing.B) {
	runExperiment(b, "fig9", "over/MIN", "over/MAX", "over/AVG")
}

func BenchmarkFig10Airbnb(b *testing.B) {
	runExperiment(b, "fig10", "over/SUM/Corr-PC", "over/SUM/Rand-PC")
}

func BenchmarkFig11Border(b *testing.B) {
	runExperiment(b, "fig11", "over/SUM/Corr-PC", "over/SUM/Rand-PC")
}

func BenchmarkFig12Joins(b *testing.B) {
	runExperiment(b, "fig12",
		"triangle/pc/10000", "triangle/es/10000", "chain/pc/10000", "chain/es/10000")
}

func BenchmarkTable2FailureMatrix(b *testing.B) {
	cfg := benchCfg()
	cfg.Queries = 25
	cfg.Rows = 3000
	var res experiments.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Run("table2", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Series["failures/Intel Wireless/SUM(light)/US-1p"], "US-1p_intel_sum_failures")
	b.ReportMetric(res.Series["failures/Intel Wireless/SUM(light)/PC"], "PC_intel_sum_failures")
}

// --- Ablation benchmarks ---

// BenchmarkAblationDecomposition compares the three decomposition strategies
// head-to-head on one workload (Figure 7's ablation as a micro-benchmark).
func BenchmarkAblationDecomposition(b *testing.B) {
	schema := domain.NewSchema(
		domain.Attr{Name: "x", Kind: domain.Continuous, Domain: domain.NewInterval(0, 100)},
		domain.Attr{Name: "y", Kind: domain.Continuous, Domain: domain.NewInterval(0, 100)},
	)
	rng := rand.New(rand.NewSource(1))
	preds := make([]*predicate.P, 12)
	for i := range preds {
		w := 40 + rng.Float64()*40
		xl := rng.Float64() * (100 - w)
		yl := rng.Float64() * (100 - w)
		preds[i] = predicate.NewBuilder(schema).Range("x", xl, xl+w).Range("y", yl, yl+w).Build()
	}
	for _, strat := range []cells.Strategy{cells.Naive, cells.DFS, cells.DFSRewrite} {
		b.Run(strat.String(), func(b *testing.B) {
			solver := sat.New(schema)
			for i := 0; i < b.N; i++ {
				if _, err := cells.Decompose(solver, preds, cells.Options{
					Strategy: strat, SkipProjections: true,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFastPath measures the disjoint greedy fast path against
// the general MILP path on the same disjoint constraint set.
func BenchmarkAblationFastPath(b *testing.B) {
	tb := data.Intel(4000, 1)
	_, missing := tb.RemoveTopFraction("light", 0.3)
	set, err := pcgen.CorrPC(missing, []string{"time"}, 200)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.New(missing.Schema(), []string{"time"}, "light", 7)
	queries := gen.Queries(50, core.Sum)
	for _, disable := range []bool{false, true} {
		name := "greedy"
		if disable {
			name = "milp"
		}
		b.Run(name, func(b *testing.B) {
			engine := core.NewEngine(set, nil, core.Options{DisableFastPath: disable})
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := engine.Bound(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationFECvsCartesian quantifies the Section 5.2 bound
// improvement over the naive product as query size grows.
func BenchmarkAblationFECvsCartesian(b *testing.B) {
	for _, k := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("chain-%d", k), func(b *testing.B) {
			g := join.Chain(k, 1000)
			var fec, cart float64
			for i := 0; i < b.N; i++ {
				var err error
				fec, err = join.CountBound(g)
				if err != nil {
					b.Fatal(err)
				}
				cart = join.CartesianCount(g)
			}
			b.ReportMetric(cart/fec, "cartesian_over_fec")
		})
	}
}

// BenchmarkAblationParallelBatch is the sequential-vs-parallel ablation for
// the batch-bounding engine: a ≥100-query workload with repeated query
// regions, bounded (a) by the seed's sequential path — a per-query Bound
// loop with the decomposition cache disabled — and (b) by BoundBatch with a
// worker pool and the shared decomposition cache. The speedup sub-benchmark
// verifies the two paths return bit-identical Ranges and reports the
// wall-clock ratio via b.ReportMetric. On a single-core host the win comes
// from decomposition reuse; on multi-core hosts the worker pool compounds it.
func BenchmarkAblationParallelBatch(b *testing.B) {
	tb := data.Intel(4000, 1)
	_, missing := tb.RemoveTopFraction("light", 0.3)
	rng := rand.New(rand.NewSource(3))
	set, err := pcgen.RandPC(missing, []string{"device", "time"}, 24, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.New(missing.Schema(), []string{"device", "time"}, "light", 7)
	base := gen.Queries(30, core.Sum)
	queries := make([]core.Query, 0, 4*len(base))
	for len(queries) < 120 { // ≥100 queries, each region appearing 4 times
		queries = append(queries, base...)
	}
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4
	}
	seqOpts := core.Options{DisableDecompCache: true}

	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine := core.NewEngine(set, nil, seqOpts)
			for _, q := range queries {
				if _, err := engine.Bound(q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("batch-par%d", par), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engine := core.NewEngine(set, nil, core.Options{})
			if _, err := engine.BoundBatch(queries, core.BatchOptions{Parallelism: par}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("speedup", func(b *testing.B) {
		var seqTotal, batchTotal time.Duration
		for i := 0; i < b.N; i++ {
			seqEngine := core.NewEngine(set, nil, seqOpts)
			want := make([]core.Range, len(queries))
			start := time.Now()
			for qi, q := range queries {
				var err error
				want[qi], err = seqEngine.Bound(q)
				if err != nil {
					b.Fatal(err)
				}
			}
			seqTotal += time.Since(start)

			batchEngine := core.NewEngine(set, nil, core.Options{})
			start = time.Now()
			got, err := batchEngine.BoundBatch(queries, core.BatchOptions{Parallelism: par})
			if err != nil {
				b.Fatal(err)
			}
			batchTotal += time.Since(start)

			for qi := range want {
				if got[qi] != want[qi] {
					b.Fatalf("query %d: batch range %+v != sequential range %+v", qi, got[qi], want[qi])
				}
			}
		}
		b.ReportMetric(float64(seqTotal)/float64(batchTotal), "speedup")
		b.ReportMetric(float64(len(queries)), "queries")
	})
}

// --- Hot-path benchmarks (PR 2) ---

// hotPathWorkload is one BenchmarkHotPath scenario: a constraint set, a
// query mix over all five aggregates, and the engine options that shape
// where the time goes (SAT-dominated decomposition, MILP-dominated
// allocation search, or an even mix).
type hotPathWorkload struct {
	name    string
	set     *core.Set
	queries []core.Query
	opts    core.Options
}

func hotPathWorkloads(b *testing.B) []hotPathWorkload {
	b.Helper()
	allAggs := func(gen *workload.Gen, n int) []core.Query {
		var qs []core.Query
		for _, agg := range []core.Agg{core.Count, core.Sum, core.Avg, core.Min, core.Max} {
			qs = append(qs, gen.Queries(n, agg)...)
		}
		return qs
	}

	// SAT-heavy: a dense overlapping constraint set with the decomposition
	// cache disabled, so every query pays the full DFS+SAT+projection cost.
	tb := data.Intel(3000, 1)
	_, missing := tb.RemoveTopFraction("light", 0.3)
	rng := rand.New(rand.NewSource(41))
	satSet, err := pcgen.RandPC(missing, []string{"device", "time"}, 36, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	satGen := workload.New(missing.Schema(), []string{"device", "time"}, "light", 11)
	satHeavy := hotPathWorkload{
		name:    "sat-heavy",
		set:     satSet,
		queries: allAggs(satGen, 3),
		opts:    core.Options{DisableDecompCache: true},
	}

	// MILP-heavy: the cache amortizes decomposition across repeated regions,
	// so branch-and-bound, feasibility probes and threshold searches
	// dominate. MIN/MAX/AVG issue the most MILP solves per query.
	rng2 := rand.New(rand.NewSource(43))
	milpSet, err := pcgen.RandPC(missing, []string{"device", "time"}, 18, 10, rng2)
	if err != nil {
		b.Fatal(err)
	}
	milpGen := workload.New(missing.Schema(), []string{"device", "time"}, "light", 13)
	milpQueries := allAggs(milpGen, 2)
	// Repeat the regions so the decomposition cache absorbs SAT work.
	milpQueries = append(milpQueries, milpQueries...)
	milpHeavy := hotPathWorkload{
		name:    "milp-heavy",
		set:     milpSet,
		queries: milpQueries,
		opts:    core.Options{},
	}

	// Mixed: fresh decompositions and full allocation searches together.
	mixed := hotPathWorkload{
		name:    "mixed",
		set:     milpSet,
		queries: allAggs(milpGen, 3),
		opts:    core.Options{DisableDecompCache: true},
	}
	return []hotPathWorkload{satHeavy, milpHeavy, mixed}
}

func runHotPath(b *testing.B, w hotPathWorkload, reference bool) []core.Range {
	b.Helper()
	opts := w.opts
	opts.Reference = reference
	engine := core.NewEngine(w.set, nil, opts)
	out := make([]core.Range, len(w.queries))
	for qi, q := range w.queries {
		var err error
		out[qi], err = engine.Bound(q)
		if err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// BenchmarkHotPath measures the optimized bounding stack (arena SAT with
// spatial pruning, incremental cell DFS, pooled LP contexts, cached-solution
// branch-and-bound) against the preserved pre-optimization path
// (core.Options.Reference) on SAT-heavy, MILP-heavy and mixed workloads.
//
// The reference/optimized sub-benchmarks report ns/op and allocs/op for each
// path; the speedup sub-benchmark runs both back to back, verifies the Range
// outputs of all five aggregates are bit-identical, and reports the
// wall-clock speedup and the allocation reduction factor.
func BenchmarkHotPath(b *testing.B) {
	for _, w := range hotPathWorkloads(b) {
		b.Run(w.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runHotPath(b, w, true)
			}
		})
		b.Run(w.name+"/optimized", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runHotPath(b, w, false)
			}
		})
		b.Run(w.name+"/speedup", func(b *testing.B) {
			var refTime, optTime time.Duration
			var refAllocs, optAllocs uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				runtime.ReadMemStats(&ms)
				m0 := ms.Mallocs
				start := time.Now()
				want := runHotPath(b, w, true)
				refTime += time.Since(start)
				runtime.ReadMemStats(&ms)
				refAllocs += ms.Mallocs - m0

				runtime.ReadMemStats(&ms)
				m0 = ms.Mallocs
				start = time.Now()
				got := runHotPath(b, w, false)
				optTime += time.Since(start)
				runtime.ReadMemStats(&ms)
				optAllocs += ms.Mallocs - m0

				for qi := range want {
					if got[qi] != want[qi] {
						b.Fatalf("query %d (%v): optimized range %+v != reference %+v",
							qi, w.queries[qi].Agg, got[qi], want[qi])
					}
				}
			}
			b.ReportMetric(float64(refTime)/float64(optTime), "speedup")
			b.ReportMetric(float64(refAllocs)/float64(optAllocs), "alloc_reduction")
			b.ReportMetric(float64(len(w.queries)), "queries")
		})
	}
}

// BenchmarkHotPathWarmStart measures the opt-in dual-simplex warm start on
// the MILP-heavy workload against the default cold-solve configuration.
func BenchmarkHotPathWarmStart(b *testing.B) {
	ws := hotPathWorkloads(b)
	w := ws[1] // milp-heavy
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			opts := w.opts
			opts.MILP.WarmStart = warm
			for i := 0; i < b.N; i++ {
				engine := core.NewEngine(w.set, nil, opts)
				for _, q := range w.queries {
					if _, err := engine.Bound(q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Constraint-store benchmarks (PR 3) ---

// incrementalStore builds a store of overlapping constraint "chains" along an
// integral axis plus an all-aggregate workload over sliding query windows.
// Each window overlaps only a few constraints, so a single-constraint
// mutation leaves most windows' decompositions untouched — exactly the
// situation scoped cache invalidation targets.
func incrementalStore() (*core.Store, []core.PCID, []core.Query) {
	schema := domain.NewSchema(
		domain.Attr{Name: "x", Kind: domain.Integral, Domain: domain.NewInterval(0, 99)},
		domain.Attr{Name: "v", Kind: domain.Continuous, Domain: domain.NewInterval(0, 100)},
	)
	store := core.NewStore(schema)
	var pcs []core.PC
	for i := 0; i < 30; i++ {
		lo := float64(3 * i)
		pcs = append(pcs, core.MustPC(
			// Width-12 boxes every 3 steps: ~4 constraints overlap each
			// lattice point, so each query window decomposes into many cells
			// and the DFS+SAT+projection work dominates the per-window MILP.
			predicate.NewBuilder(schema).Range("x", lo, lo+12).Build(),
			map[string]domain.Interval{"v": domain.NewInterval(0, 40+float64(i%4)*10)},
			i%3, 6+i%5,
		))
	}
	ids, err := store.AddPCs(pcs...)
	if err != nil {
		panic(err)
	}
	var queries []core.Query
	for j := 0; j < 9; j++ {
		where := predicate.NewBuilder(schema).Range("x", float64(10*j), float64(10*j+12)).Build()
		for _, agg := range []core.Agg{core.Count, core.Sum} {
			queries = append(queries, core.Query{Agg: agg, Attr: "v", Where: where})
		}
	}
	return store, ids, queries
}

// mutateStore tightens one constraint in place (cycling through the store by
// step), bumping the epoch.
func mutateStore(store *core.Store, ids []core.PCID, step int) error {
	id := ids[step%len(ids)]
	pc, ok := store.Get(id)
	if !ok {
		return fmt.Errorf("constraint %d disappeared", id)
	}
	if pc.KHi > pc.KLo {
		pc.KHi--
	} else {
		pc.KHi += 4
	}
	return store.Replace(id, pc)
}

// BenchmarkIncrementalUpdate measures the mutate→rebound cycle: after each
// Replace, re-bound the whole workload either (a) incrementally — Rebind the
// engine to the new snapshot and keep the decomposition cache, whose scoped
// invalidation retains every entry the mutation did not touch — or (b) from
// scratch, building a fresh engine (cold cache, fresh solver) as the
// pre-Store design required after any constraint change. The speedup
// sub-benchmark runs both per mutation, verifies the Ranges are
// bit-identical, and reports the wall-clock ratio plus how many cache
// entries scoped invalidation retained per mutation.
func BenchmarkIncrementalUpdate(b *testing.B) {
	opts := core.Options{DisableFastPath: true}

	b.Run("incremental", func(b *testing.B) {
		store, ids, queries := incrementalStore()
		engine := core.NewEngine(store, nil, opts)
		if _, err := engine.BoundBatch(queries, core.BatchOptions{Parallelism: 1}); err != nil {
			b.Fatal(err) // warm the cache before timing
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := mutateStore(store, ids, i); err != nil {
				b.Fatal(err)
			}
			engine = engine.Rebind()
			if _, err := engine.BoundBatch(queries, core.BatchOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		store, ids, queries := incrementalStore()
		for i := 0; i < b.N; i++ {
			if err := mutateStore(store, ids, i); err != nil {
				b.Fatal(err)
			}
			engine := core.NewEngine(store, nil, opts)
			if _, err := engine.BoundBatch(queries, core.BatchOptions{Parallelism: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("speedup", func(b *testing.B) {
		store, ids, queries := incrementalStore()
		engine := core.NewEngine(store, nil, opts)
		if _, err := engine.BoundBatch(queries, core.BatchOptions{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
		var incTotal, rebTotal time.Duration
		retainedBefore := engine.CacheStats().Retained
		for i := 0; i < b.N; i++ {
			if err := mutateStore(store, ids, i); err != nil {
				b.Fatal(err)
			}

			start := time.Now()
			engine = engine.Rebind()
			got, err := engine.BoundBatch(queries, core.BatchOptions{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			incTotal += time.Since(start)

			start = time.Now()
			fresh := core.NewEngine(store, nil, opts)
			want, err := fresh.BoundBatch(queries, core.BatchOptions{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			rebTotal += time.Since(start)

			for qi := range want {
				if got[qi] != want[qi] {
					b.Fatalf("mutation %d query %d (%v): incremental %+v != rebuild %+v",
						i, qi, queries[qi].Agg, got[qi], want[qi])
				}
			}
		}
		retained := engine.CacheStats().Retained - retainedBefore
		b.ReportMetric(float64(rebTotal)/float64(incTotal), "speedup")
		b.ReportMetric(float64(retained)/float64(b.N), "retained_entries/op")
		b.ReportMetric(float64(len(queries)), "queries")
	})
}

// --- Intra-query parallelism benchmarks (PR 5) ---

// intraQueryStore is the single-huge-query scenario shared with
// `pcbench -bench intraquery` (see experiments.IntraQueryScenario).
func intraQueryStore() (*core.Store, core.Query) {
	return experiments.IntraQueryScenario()
}

// BenchmarkIntraQuery measures one MILP-heavy query bounded (a) on the
// sequential reference path (cells solved one at a time on the calling
// goroutine) and (b) with its per-cell solves fanned out over the shared
// cost-ordered scheduler. Both paths run with the decomposition cache, and
// so its solve memo, disabled so the timing isolates scheduling, not
// memoization; the cellcache-warm sub-benchmark then shows a warm cached
// decomposition's memo skipping the MILPs entirely. The speedup
// sub-benchmark verifies the two Ranges are bit-identical every iteration
// and reports the wall-clock ratio — the intra-query parallel speedup, ~1x
// on a single-core host and rising with cores (the per-cell tasks are
// independent MILPs).
func BenchmarkIntraQuery(b *testing.B) {
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4
	}
	seqOpts := core.Options{SequentialCells: true, DisableDecompCache: true, DisableFastPath: true}

	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		store, q := intraQueryStore()
		engine := core.NewEngine(store, nil, seqOpts)
		for i := 0; i < b.N; i++ {
			if _, err := engine.Bound(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("sched-par%d", par), func(b *testing.B) {
		b.ReportAllocs()
		store, q := intraQueryStore()
		sch := sched.New(par)
		defer sch.Close()
		engine := core.NewEngine(store, nil, core.Options{
			Scheduler: sch, DisableDecompCache: true, DisableFastPath: true,
		})
		for i := 0; i < b.N; i++ {
			if _, err := engine.Bound(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cellcache-warm", func(b *testing.B) {
		b.ReportAllocs()
		store, q := intraQueryStore()
		engine := core.NewEngine(store, nil, core.Options{DisableFastPath: true})
		if _, err := engine.Bound(q); err != nil {
			b.Fatal(err) // warm the solve memo before timing
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Bound(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("speedup", func(b *testing.B) {
		store, q := intraQueryStore()
		seqEngine := core.NewEngine(store, nil, seqOpts)
		sch := sched.New(par)
		defer sch.Close()
		parEngine := core.NewEngine(store, nil, core.Options{
			Scheduler: sch, DisableDecompCache: true, DisableFastPath: true,
		})
		var seqTotal, parTotal time.Duration
		for i := 0; i < b.N; i++ {
			start := time.Now()
			want, err := seqEngine.Bound(q)
			if err != nil {
				b.Fatal(err)
			}
			seqTotal += time.Since(start)

			start = time.Now()
			got, err := parEngine.Bound(q)
			if err != nil {
				b.Fatal(err)
			}
			parTotal += time.Since(start)

			if got != want {
				b.Fatalf("scheduler range %+v != sequential range %+v", got, want)
			}
		}
		b.ReportMetric(float64(seqTotal)/float64(parTotal), "speedup")
		b.ReportMetric(float64(par), "workers")
	})
}

// BenchmarkAblationEarlyStop measures the tightness/time trade of
// Optimization 4 at several stop layers.
func BenchmarkAblationEarlyStop(b *testing.B) {
	tb := data.Intel(4000, 1)
	_, missing := tb.RemoveTopFraction("light", 0.3)
	rng := rand.New(rand.NewSource(2))
	set, err := pcgen.RandPC(missing, []string{"device", "time"}, 36, 10, rng)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.New(missing.Schema(), []string{"device", "time"}, "light", 7)
	queries := gen.Queries(20, core.Sum)
	for _, layer := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("layer-%d", layer), func(b *testing.B) {
			opts := core.Options{}
			opts.Cells.EarlyStopLayer = layer
			engine := core.NewEngine(set, nil, opts)
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if _, err := engine.Bound(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
