package main

// The -bench mode: an in-binary micro-benchmark suite with machine-readable
// output, so the perf trajectory across PRs lives in committed JSON
// (BENCH_PR5.json) and CI artifacts instead of scrollback. testing.Benchmark
// gives the same adaptive iteration logic as `go test -bench`.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"pcbound/internal/core"
	"pcbound/internal/experiments"
	"pcbound/internal/sched"
)

// BenchResult is one benchmark's machine-readable outcome.
type BenchResult struct {
	Name        string  `json:"name"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// SpeedupVsReference is reference ns/op divided by this row's ns/op,
	// where the reference is the suite's sequential configuration (1.0 for
	// the reference row itself).
	SpeedupVsReference float64 `json:"speedup_vs_reference"`
}

// BenchReport is the top-level JSON document -json writes.
type BenchReport struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
}

// suiteOrder fixes the order suites run in under "all"; suiteRunners maps
// each name to its implementation. A runner benches under whatever
// GOMAXPROCS is current, so -sweep can rerun it per parallelism level.
var suiteOrder = []string{"intraquery", "tiered"}

var suiteRunners = map[string]func() (*BenchReport, error){
	"intraquery": runIntraQuerySuite,
	"tiered":     runTieredSuite,
}

// sweepLevels returns the GOMAXPROCS ladder {1, 2, 4, NumCPU} (deduplicated,
// ascending). On a small host the ladder still exercises >NumCPU levels:
// GOMAXPROCS above the core count is legal and shows the scheduler's
// oversubscription behavior rather than being skipped.
func sweepLevels() []int {
	levels := []int{1, 2, 4}
	n := runtime.NumCPU()
	switch {
	case n > 4:
		levels = append(levels, n)
	case n == 3:
		levels = []int{1, 2, 3, 4}
	}
	return levels
}

// runBenchSuite runs the named suite (or all of them), optionally swept
// across GOMAXPROCS levels, and returns an exit code. When jsonPath is
// non-empty the merged report is also written there.
func runBenchSuite(suite, jsonPath string, sweep bool) int {
	var names []string
	if suite == "all" {
		names = suiteOrder
	} else if _, ok := suiteRunners[suite]; ok {
		names = []string{suite}
	} else {
		fmt.Fprintf(os.Stderr, "pcbench: unknown bench suite %q (available: intraquery, tiered, all)\n", suite)
		return 1
	}
	levels := []int{runtime.GOMAXPROCS(0)}
	if sweep {
		levels = sweepLevels()
	}

	// The report's GOMAXPROCS is the widest level benched; per-level rows
	// are distinguished by the @pN suffix a sweep appends.
	report := &BenchReport{Suite: suite, GoVersion: runtime.Version(), GOMAXPROCS: levels[len(levels)-1]}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range levels {
		runtime.GOMAXPROCS(p)
		for _, name := range names {
			sub, err := suiteRunners[name]()
			if err != nil {
				fmt.Fprintf(os.Stderr, "pcbench: %s: %v\n", name, err)
				return 1
			}
			for _, r := range sub.Results {
				if sweep {
					r.Name = fmt.Sprintf("%s@p%d", r.Name, p)
				}
				report.Results = append(report.Results, r)
			}
		}
	}
	runtime.GOMAXPROCS(prev)

	fmt.Printf("== bench %s (GOMAXPROCS=%d, %s)\n\n", report.Suite, report.GOMAXPROCS, report.GoVersion)
	for _, r := range report.Results {
		fmt.Printf("%-32s %10d iters  %14.0f ns/op  %8d allocs/op  %8.2fx vs reference\n",
			r.Name, r.Iters, r.NsPerOp, r.AllocsPerOp, r.SpeedupVsReference)
	}
	if jsonPath != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: encoding report: %v\n", err)
			return 1
		}
		raw = append(raw, '\n')
		if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: writing %s: %v\n", jsonPath, err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	return 0
}

// runIntraQuerySuite benchmarks one MILP-heavy query on the sequential
// reference path and on the shared scheduler, both cold (no decomposition
// cache, so no solve memo), and warm from the cached decomposition's solve
// memo, verifying along the way that all three produce bit-identical Ranges.
// The warm row keeps its cellcache-warm name so baselines line up.
func runIntraQuerySuite() (*BenchReport, error) {
	store, q := experiments.IntraQueryScenario()
	par := runtime.GOMAXPROCS(0)
	seqOpts := core.Options{SequentialCells: true, DisableDecompCache: true, DisableFastPath: true}
	sch := sched.New(par)
	defer sch.Close()
	schedOpts := core.Options{Scheduler: sch, DisableDecompCache: true, DisableFastPath: true}
	cacheOpts := core.Options{Scheduler: sch, DisableFastPath: true}

	// Bit-identity first: the benchmark numbers are only comparable if the
	// three paths agree bit-for-bit on the answer.
	want, err := core.NewEngine(store, nil, seqOpts).Bound(q)
	if err != nil {
		return nil, err
	}
	for name, opts := range map[string]core.Options{"scheduler": schedOpts, "solve-memo": cacheOpts} {
		got, err := core.NewEngine(store, nil, opts).Bound(q)
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, fmt.Errorf("%s path range %+v != sequential %+v", name, got, want)
		}
	}

	bench := func(name string, engine *core.Engine, warm bool) (BenchResult, error) {
		if warm {
			if _, err := engine.Bound(q); err != nil {
				return BenchResult{}, err
			}
		}
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Bound(q); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return BenchResult{}, benchErr
		}
		return BenchResult{
			Name:        name,
			Iters:       res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}, nil
	}

	report := &BenchReport{Suite: "intraquery", GoVersion: runtime.Version(), GOMAXPROCS: par}
	rows := []struct {
		name string
		opts core.Options
		warm bool
	}{
		{"intraquery/seq", seqOpts, false},
		{fmt.Sprintf("intraquery/sched-par%d", par), schedOpts, false},
		{"intraquery/cellcache-warm", cacheOpts, true},
	}
	for _, row := range rows {
		r, err := bench(row.name, core.NewEngine(store, nil, row.opts), row.warm)
		if err != nil {
			return nil, err
		}
		report.Results = append(report.Results, r)
	}
	ref := report.Results[0].NsPerOp
	for i := range report.Results {
		if ns := report.Results[i].NsPerOp; ns > 0 {
			report.Results[i].SpeedupVsReference = ref / ns
		}
	}
	return report, nil
}

// runTieredSuite benchmarks the tiered-precision split on one MILP-heavy
// query: a cold exact solve (every cache disabled, so each iteration pays
// the full decomposition + solver cost — the reference row), a warm exact
// solve, and the summary tier (sound outer interval, no solver work). The
// summary row's speedup_vs_reference is the headline tiering win; before
// benching, the suite verifies the summary interval contains the exact
// range and that the exact path is bit-identical with and without the
// overlay attached.
func runTieredSuite() (*BenchReport, error) {
	store, q := experiments.IntraQueryScenario()
	ov := core.AttachSummary(store)
	defer ov.Detach()

	coldOpts := core.Options{SequentialCells: true, DisableDecompCache: true, DisableFastPath: true}
	exact, err := core.NewEngine(store, nil, coldOpts).Bound(q)
	if err != nil {
		return nil, err
	}
	tiered := core.NewEngine(store, nil, core.Options{Summary: ov})
	plain, err := core.NewEngine(store, nil, core.Options{}).Bound(q)
	if err != nil {
		return nil, err
	}
	viaTier, prec, err := tiered.BoundTiered(q, core.TierSpec{Mode: core.TierExact})
	if err != nil {
		return nil, err
	}
	if prec != core.PrecisionExact || viaTier != plain {
		return nil, fmt.Errorf("exact path changed under the overlay: %+v (%v) != %+v", viaTier, prec, plain)
	}
	sum, prec, err := tiered.BoundTiered(q, core.TierSpec{Mode: core.TierForceSummary})
	if err != nil {
		return nil, err
	}
	if prec != core.PrecisionSummary {
		return nil, fmt.Errorf("summary tier refused the scenario query")
	}
	if sum.Lo > exact.Lo || sum.Hi < exact.Hi {
		return nil, fmt.Errorf("summary [%v,%v] does not contain exact [%v,%v]", sum.Lo, sum.Hi, exact.Lo, exact.Hi)
	}

	report := &BenchReport{Suite: "tiered", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	coldEngine := core.NewEngine(store, nil, coldOpts)
	warmEngine := core.NewEngine(store, nil, core.Options{DisableFastPath: true})
	if _, err := warmEngine.Bound(q); err != nil { // prime the caches
		return nil, err
	}
	rows := []struct {
		name string
		run  func() error
	}{
		{"tiered/exact-cold", func() error { _, err := coldEngine.Bound(q); return err }},
		{"tiered/exact-warm", func() error { _, err := warmEngine.Bound(q); return err }},
		{"tiered/summary", func() error {
			r, p, err := tiered.BoundTiered(q, core.TierSpec{Mode: core.TierForceSummary})
			if err == nil && (p != core.PrecisionSummary || r.Lo > exact.Lo || r.Hi < exact.Hi) {
				return fmt.Errorf("summary answer regressed mid-benchmark: %+v (%v)", r, p)
			}
			return err
		}},
	}
	for _, row := range rows {
		var benchErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := row.run(); err != nil {
					benchErr = err
					b.FailNow()
				}
			}
		})
		if benchErr != nil {
			return nil, benchErr
		}
		report.Results = append(report.Results, BenchResult{
			Name:        row.name,
			Iters:       res.N,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
	}
	ref := report.Results[0].NsPerOp
	for i := range report.Results {
		if ns := report.Results[i].NsPerOp; ns > 0 {
			report.Results[i].SpeedupVsReference = ref / ns
		}
	}
	return report, nil
}
