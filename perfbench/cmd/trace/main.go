// Command trace is the benchmark's traced run: it replays one workload's
// seeded op stream several times, each pass from an identical fresh boot
// and one layer deeper than the last, and prints the per-layer metrics.
//
//	pass 0  through the front door, untraced: no per-op clock reads, no
//	        memory statistics, no /metrics scrapes (the overhead baseline)
//	pass 1  through the front door, traced; /metrics is scraped around it
//	pass 2  into pcserved's handler, skipping the router
//	pass 3  as the direct core/wal calls the handler makes
//	pass 4  as cells.Decompose per decomposition-cache miss and
//	        BoundSummary per tier-opted read
//
// plus two variants of pass 3 (batches at parallelism 1, commits without
// the summary overlay) and a harness pass: the client into a handler that
// replays pass 2's answers, which prices the client's own request and
// recorder so the server's self time and allocations can leave it out. A
// layer's self time is its pass minus the next-inner pass, per op. Spans (pass, op, name, start, end) stay in memory and are
// written to a TSV file at exit. The last line of output is one JSON object
// with every per-layer metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 1
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pcbound/internal/server"
	"pcbound/perfbench/bench"
	"pcbound/perfbench/trace"
)

// traceRate sets the traced stream's length: seconds × traceRate ops, a
// fixed count, so two same-seed traced runs do identical work. mutate-mix's
// is high enough that a 20 s stream spans more than 1024 mutations, so the
// traced pass takes a checkpoint.
var traceRate = map[string]float64{
	bench.ColdSolve:     150,
	bench.PartitionRead: 300,
	bench.MutateMix:     250,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

// span is one recorded interval.
type span struct {
	pass       int
	op         int
	name       string
	start, end time.Duration
}

type metrics struct {
	names  []string
	values map[string]bench.Metric
	notes  map[string]string
}

func (m *metrics) set(name string, v float64, unit string) {
	if _, ok := m.values[name]; !ok {
		m.names = append(m.names, name)
	}
	m.values[name] = bench.Metric{Value: v, Unit: unit}
}

// na records a metric the workload has nothing to measure for (or whose
// counter the server does not export) as zero, with a note.
func (m *metrics) na(name, unit, why string) {
	m.set(name, 0, unit)
	m.notes[name] = why
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload: cold-solve, partition-read or mutate-mix")
		seed      = flag.Int64("seed", 1, "seed of the op stream")
		seconds   = flag.Float64("seconds", 20, "scales the traced stream's length (seconds × a per-workload rate)")
		traceFlag = flag.Int("trace", 1, "must be 1: the end-to-end runner is cmd/e2e")
		spansPath = flag.String("spans", "", "where to write spans (default .bench_build/spans/<workload>-seed<seed>.tsv)")
	)
	flag.Parse()
	if *traceFlag != 1 {
		return fmt.Errorf("--trace %d: the end-to-end runner is cmd/e2e (run.sh picks it)", *traceFlag)
	}
	if err := bench.CheckClients(); err != nil {
		return err
	}
	rate, ok := traceRate[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, bench.Names)
	}
	if *spansPath == "" {
		*spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.tsv", *name, *seed))
	}
	work, err := bench.WorkDir(*name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	n := max(1, int(*seconds*rate))
	in, err := bench.Generate(*name, *seed, n, work)
	if err != nil {
		return err
	}
	ops := in.Ops
	env := bench.Stamp(*seed, in.Durable(), work)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	fmt.Printf("traced run: workload %s seed %d, %d ops per pass\n", *name, *seed, n)
	booter := &bench.Booter{In: in, Dir: work}

	// Set-up, timed separately for boot and warm-up.
	var bootT, warmT []time.Duration
	for b := 0; b < 3; b++ {
		st, bt, err := booter.Boot()
		if err != nil {
			return err
		}
		bootT, warmT = append(bootT, bt.Boot), append(warmT, bt.Warm)
		if err := st.Close(); err != nil {
			return err
		}
	}

	// pass replays the stream into a fresh stack's front door or handler.
	// A traced pass records each op's start and latency, and memory
	// statistics and /metrics scrapes bracket its loop; an untraced pass
	// reads the clock only at its two ends.
	type passRecord struct {
		res           *bench.Result
		ms0, ms1      runtime.MemStats
		before, after map[string]float64
	}
	timed := func(h http.Handler, p *passRecord) {
		runtime.ReadMemStats(&p.ms0)
		bench.NewClient(h).Run(ops, 0, p.res)
		runtime.ReadMemStats(&p.ms1)
	}
	pass := func(front, traced bool) (*passRecord, error) {
		st, _, err := booter.Boot()
		if err != nil {
			return nil, err
		}
		h := st.Backend
		if front {
			h = st.Front
		}
		if !traced {
			p := &passRecord{res: bench.NewUntimedResult(n)}
			bench.NewClient(h).Run(ops, 0, p.res)
			return p, st.Close()
		}
		p := &passRecord{res: bench.NewResult(n), before: bench.Scrape(st.Backend)}
		timed(h, p)
		p.after = bench.Scrape(st.Backend)
		return p, st.Close()
	}
	// Pass 0: the front door, untraced.
	p0, err := pass(true, false)
	if err != nil {
		return err
	}
	// Pass 1: the front door, traced.
	p1, err := pass(true, true)
	if err != nil {
		return err
	}
	// Pass 2: pcserved's handler.
	p2, err := pass(false, true)
	if err != nil {
		return err
	}
	// The harness pass: no stack, only the client's own cost.
	ph := &passRecord{res: bench.NewResult(n)}
	timed(&canned{res: p2.res}, ph)
	res0, res1, res2, resH := p0.res, p1.res, p2.res, ph.res
	before, after, ms0, ms1 := p1.before, p1.after, p1.ms0, p1.ms1
	handlerAlloc := p2.ms1.TotalAlloc - p2.ms0.TotalAlloc
	harnessAlloc := ph.ms1.TotalAlloc - ph.ms0.TotalAlloc
	// Pass 3 and its variants: the direct core/wal calls.
	corePass := func(opts trace.CoreOptions) (*trace.CorePass, error) {
		dir, err := booter.WALCopy()
		if err != nil {
			return nil, err
		}
		return trace.RunCore(in, dir, ops, opts)
	}
	c3, err := corePass(trace.CoreOptions{})
	if err != nil {
		return err
	}
	var kinds [5]int
	for i := range ops {
		kinds[ops[i].Kind]++
	}
	batches, muts := kinds[bench.Batch], kinds[bench.Add]+kinds[bench.Replace]+kinds[bench.Remove]
	var c3seq, c3bare *trace.CorePass
	if batches > 0 {
		if c3seq, err = corePass(trace.CoreOptions{BatchParallelism: 1}); err != nil {
			return err
		}
	}
	if muts > 0 {
		if c3bare, err = corePass(trace.CoreOptions{NoSummary: true}); err != nil {
			return err
		}
	}
	// Pass 4: one layer below the engine.
	lay, err := trace.RunLayers(in, ops, c3.Misses)
	if err != nil {
		return err
	}
	attach, err := trace.TimeAttach(in, 3)
	if err != nil {
		return err
	}
	recov, err := trace.TimeRecover(in, work, 3)
	if err != nil {
		return err
	}

	// Correctness: pass 1 against a fresh reference, and every other pass
	// against pass 1.
	ver, err := bench.Verify(in, res1, booter.RefDir())
	if err != nil {
		return err
	}
	disagree := 0
	for i := 0; i < n; i++ {
		ok := bytes.Equal(res0.Body[i], res1.Body[i]) && bytes.Equal(res2.Body[i], res1.Body[i]) &&
			agrees(&ops[i], res1.Body[i], c3, i) && (c3seq == nil || agrees(&ops[i], res1.Body[i], c3seq, i))
		// Without the overlay, tier-opted reads escalate to exact answers.
		if c3bare != nil && !c3.Tier[i] {
			ok = ok && agrees(&ops[i], res1.Body[i], c3bare, i)
		}
		if !ok {
			disagree++
			if !ver.Failed[i] {
				ver.Failed[i] = true
				fmt.Printf("  disagreement at op %d (%s): pass 1 answered %s\n", i, ops[i].Kind, res1.Body[i])
			}
		}
	}
	failed := ver.FailedOps()

	m := &metrics{values: map[string]bench.Metric{}, notes: map[string]string{}}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	mean := func(sel func(i int) (time.Duration, bool)) (float64, int) {
		var sum time.Duration
		k := 0
		for i := 0; i < n; i++ {
			if d, ok := sel(i); ok {
				sum += d
				k++
			}
		}
		if k == 0 {
			return 0, 0
		}
		return us(sum) / float64(k), k
	}
	meanSet := func(name, why string, sel func(i int) (time.Duration, bool)) {
		if v, k := mean(sel); k > 0 {
			m.set(name, v, "us")
		} else {
			m.na(name, "us", why)
		}
	}
	delta := func(c string) (float64, bool) { return bench.Delta(before, after, c) }
	ratio := func(name, unit, why string, num, den float64, ok bool) {
		if ok && den > 0 {
			m.set(name, num/den, unit)
		} else {
			m.na(name, unit, why)
		}
	}
	exact := func(i int) bool {
		return ops[i].Kind == bench.Bound && len(c3.Precs[i]) == 1 && c3.Precs[i][0] == "exact"
	}

	// Self times are medians of per-op differences: an op's solver or fsync
	// time varies from pass to pass by far more than the layer's own cost,
	// and the median lets that noise cancel instead of averaging it in.
	medianDiff := func(name string, outer, inner []time.Duration, sel func(i int) bool) {
		var d []time.Duration
		for i := 0; i < n; i++ {
			if sel(i) {
				d = append(d, outer[i]-inner[i])
			}
		}
		if len(d) == 0 {
			m.na(name, "us", "no such ops")
			return
		}
		m.set(name, us(bench.MedianDuration(d)), "us")
	}
	medianDiff("router.self_us", res1.Lat, res2.Lat, func(i int) bool { return ops[i].Kind.Read() })
	// The handler pass also pays for the client's request and recorder,
	// which a real server does not; the harness pass prices them.
	serverInner := make([]time.Duration, n)
	for i := range serverInner {
		serverInner[i] = resH.Lat[i] + c3.Lat[i]
	}
	medianDiff("server.self_us", res2.Lat, serverInner, func(i int) bool { return true })
	m.set("server.alloc_kb_per_op", (float64(handlerAlloc)-float64(harnessAlloc)-float64(c3.Alloc))/float64(n)/1024, "KB")
	meanSet("core.exact_us", "no exact reads", func(i int) (time.Duration, bool) { return c3.Lat[i], exact(i) })
	coreBatch, _ := mean(func(i int) (time.Duration, bool) { return c3.Lat[i], ops[i].Kind == bench.Batch })
	meanSet("core.batch_us", "no batches", func(i int) (time.Duration, bool) { return c3.Lat[i], ops[i].Kind == bench.Batch })
	meanSet("core.commit_us", "no mutations", func(i int) (time.Duration, bool) { return c3.Commit[i], !ops[i].Kind.Read() })
	hits, okH := delta("pcserved_cache_hits_total")
	misses, okM := delta("pcserved_cache_misses_total")
	ratio("core.decomp_hit_ratio", "ratio", "no decomposition-cache lookups (fast path)", hits, hits+misses, okH && okM)
	inval, okI := delta("pcserved_cache_invalidated_total")
	ratio("core.invalidated_per_mut", "count", "no mutations", inval, float64(muts), okI)
	chits, okC := delta("pcserved_cellcache_hits_total")
	cmiss, okCM := delta("pcserved_cellcache_misses_total")
	ratio("core.cellcache_hit_ratio", "ratio", "no cell-cache lookups (fast path)", chits, chits+cmiss, okC && okCM)
	meanSet("cells.decompose_us", "no decomposition-cache misses on single reads", func(i int) (time.Duration, bool) {
		return lay.Decompose[i], ops[i].Kind == bench.Bound && c3.Misses[i] > 0
	})
	var cellSum, cellN float64
	if !c3.Disjoint {
		for i := 0; i < n; i++ {
			if exact(i) {
				cellSum += float64(c3.Ranges[i][0].Cells)
				cellN++
			}
		}
	}
	ratio("cells.per_op", "count", "no general-path exact reads", cellSum, cellN, true)
	checks, okS := delta("pcserved_sat_checks_total")
	ratio("sat.checks_per_op", "count", "counter absent", checks, float64(n), okS)
	nodes, okN := delta("pcserved_sat_nodes_total")
	ratio("sat.nodes_per_op", "count", "counter absent", nodes, float64(n), okN)
	meanSet("milp.residual_us", "no general-path exact reads", func(i int) (time.Duration, bool) {
		return c3.Lat[i] - lay.Decompose[i], !c3.Disjoint && exact(i)
	})
	tasks, okT := delta("pcserved_sched_tasks_total")
	ratio("sched.tasks_per_op", "count", "counter absent", tasks, float64(n), okT)
	caller, okCR := delta("pcserved_sched_caller_tasks_total")
	ratio("sched.caller_ran_ratio", "ratio", "no scheduled tasks or counter absent", caller, tasks, okT && okCR)
	if qd, ok := after["pcserved_sched_queue_depth_max"]; ok {
		m.set("sched.queue_depth_max", qd, "count")
	} else {
		m.na("sched.queue_depth_max", "count", "counter absent")
	}
	if c3seq != nil && coreBatch > 0 {
		seqBatch, _ := mean(func(i int) (time.Duration, bool) { return c3seq.Lat[i], ops[i].Kind == bench.Batch })
		m.set("parallel.batch_speedup", seqBatch/coreBatch, "ratio")
	} else {
		m.na("parallel.batch_speedup", "ratio", "no batches")
	}
	var sumT time.Duration
	for _, d := range lay.Summary {
		sumT += d
	}
	ratio("summary.eval_us", "us", "no tier-opted reads", us(sumT), float64(lay.SummaryEvals), true)
	var served, opted float64
	for i := 0; i < n; i++ {
		if c3.Tier[i] {
			for _, p := range c3.Precs[i] {
				opted++
				if p == "summary" {
					served++
				}
			}
		}
	}
	ratio("summary.served_ratio", "ratio", "no tier-opted reads", served, opted, true)
	if c3bare != nil {
		with, _ := mean(func(i int) (time.Duration, bool) { return c3.Commit[i], !ops[i].Kind.Read() })
		without, _ := mean(func(i int) (time.Duration, bool) { return c3bare.Commit[i], !ops[i].Kind.Read() })
		m.set("summary.maint_us", with-without, "us")
	} else {
		m.na("summary.maint_us", "us", "no mutations")
	}
	meanSet("wal.durable_wait_us", "no durable mutations", func(i int) (time.Duration, bool) {
		return c3.Wait[i], !ops[i].Kind.Read() && in.Durable()
	})
	fsyncs, okF := delta("wal_fsyncs_total")
	ratio("wal.fsyncs_per_mut", "count", "no WAL mutations", fsyncs, float64(muts), okF)
	flushes, okFl := delta("wal_flushes_total")
	ratio("wal.muts_per_flush", "count", "no WAL flushes", float64(muts), flushes, okFl)
	walBytes, okB := delta("wal_bytes_written_total")
	ratio("wal.bytes_per_mut", "bytes", "no WAL mutations", walBytes, float64(muts), okB)
	if ck, ok := delta("wal_checkpoints_total"); ok {
		m.set("wal.checkpoints", ck, "count")
	} else {
		m.na("wal.checkpoints", "count", "no WAL")
	}
	m.set("setup.boot_s", bench.MedianDuration(bootT).Seconds(), "s")
	m.set("setup.warm_s", bench.MedianDuration(warmT).Seconds(), "s")
	m.set("summary.attach_s", attach.Seconds(), "s")
	if in.Durable() {
		m.set("wal.recover_s", recov.Seconds(), "s")
	} else {
		m.na("wal.recover_s", "s", "no WAL (in-memory boot)")
	}
	m.set("runtime.alloc_kb_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(n)/1024, "KB")
	m.set("runtime.gc_per_kop", float64(ms1.NumGC-ms0.NumGC)*1000/float64(n), "count")
	m.set("runtime.rss_peak_mb", rssPeakMB(), "MB")
	m.set("trace.overhead_ratio", res1.Wall.Seconds()/res0.Wall.Seconds(), "ratio")

	// Spans, written at exit.
	var spans []span
	for i := 0; i < n; i++ {
		spans = append(spans,
			span{1, i, "front", res1.Start[i], res1.Start[i] + res1.Lat[i]},
			span{2, i, "handler", res2.Start[i], res2.Start[i] + res2.Lat[i]},
			span{3, i, "core." + ops[i].Kind.String(), c3.Start[i], c3.Start[i] + c3.Lat[i]})
		if !ops[i].Kind.Read() {
			spans = append(spans,
				span{3, i, "core.commit", c3.Start[i], c3.Start[i] + c3.Commit[i]},
				span{3, i, "wal.wait", c3.Start[i] + c3.Commit[i], c3.Start[i] + c3.Lat[i]})
		}
		if d := lay.Decompose[i]; d > 0 {
			spans = append(spans, span{4, i, "cells.decompose", lay.Start[i], lay.Start[i] + d})
		}
		if d := lay.Summary[i]; d > 0 {
			spans = append(spans, span{4, i, "summary.eval", lay.Start[i], lay.Start[i] + d})
		}
	}
	if err := writeSpans(*spansPath, spans); err != nil {
		return err
	}

	fmt.Printf("passes: front untraced %.3f s, front traced %.3f s, handler %.3f s, harness %.3f s, core %.3f s\n",
		res0.Wall.Seconds(), res1.Wall.Seconds(), res2.Wall.Seconds(), resH.Wall.Seconds(), c3.Wall.Seconds())
	fmt.Printf("ops per pass: %d bound, %d batch, %d add, %d replace, %d remove\n",
		kinds[bench.Bound], kinds[bench.Batch], kinds[bench.Add], kinds[bench.Replace], kinds[bench.Remove])
	fmt.Printf("deterministic counters (pass 1):")
	for _, c := range bench.Deterministic {
		if d, ok := delta(c); ok {
			fmt.Printf(" %s=%g", c, d)
		} else {
			fmt.Printf(" %s=absent", c)
		}
	}
	fmt.Printf(" summary_evals_pass4=%d\n", lay.SummaryEvals)
	for _, name := range m.names {
		v := m.values[name]
		if why, ok := m.notes[name]; ok {
			fmt.Printf("  %-28s n/a (%s)\n", name, why)
			continue
		}
		fmt.Printf("  %-28s %14.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Printf("verification: %d mismatches against the reference, %d cross-pass disagreements over %d ops\n",
		ver.Mismatches, disagree, n)
	for _, ex := range ver.Examples {
		fmt.Printf("  mismatch %s\n", ex)
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), *spansPath)
	line := bench.Line{
		Correct:   failed == 0 && ver.Mismatches == 0 && disagree == 0,
		Attempted: n, Failed: failed, Metrics: m.values,
	}
	return line.Print(os.Stdout)
}

// canned answers the i-th request it receives with the i-th answer of a
// recorded pass, the way pcserved's handlers write one, and does nothing
// else: a pass into it costs what the client and its recorder cost.
type canned struct {
	res *bench.Result
	i   int
}

func (c *canned) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(c.res.Status[c.i])
	w.Write(c.res.Body[c.i])
	c.i++
}

// agrees reports whether a core pass answered op i as pass 1 did: the same
// ranges, precisions and epoch for a read, the same epoch for a mutation.
func agrees(op *bench.Op, body []byte, c *trace.CorePass, i int) bool {
	if !op.Kind.Read() {
		var r server.MutateResponse
		return json.Unmarshal(body, &r) == nil && r.Epoch == c.Epochs[i]
	}
	ans, err := bench.ParseRead(op.Kind, body)
	if err != nil || ans.Epoch != c.Epochs[i] || len(ans.Ranges) != len(c.Ranges[i]) {
		return false
	}
	for k := range ans.Ranges {
		if ans.Precs[k] != c.Precs[i][k] || !bench.Identical(ans.Ranges[k], c.Ranges[i][k]) {
			return false
		}
	}
	return true
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "pass\top\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.pass, s.op, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rssPeakMB is the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
