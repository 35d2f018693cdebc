// Command e2e is the end-to-end runner of the serving-stack benchmark. It
// boots pcrouter's handler in front of pcserved's handler in one process
// (joined by an in-process transport, with a real WAL for the durable
// workload), replays a seeded op stream from one closed-loop client for a
// fixed time, verifies every answer against a fresh reference server, and
// prints the end-to-end metrics. The last line of its output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pcbound/perfbench/bench"
)

// maxRate bounds each workload's throughput from above (ops/s, about 2.5×
// what a 2-vCPU Xeon VM reaches); the stream is generated this long up
// front so the timed loop never generates inputs. A run that exhausts it
// says so.
var maxRate = map[string]float64{
	bench.ColdSolve:     2500,
	bench.PartitionRead: 5000,
	bench.MutateMix:     2000,
}

// boots is how many times a run sets the stack up; setup_s is the median.
const boots = 7

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: cold-solve, partition-read or mutate-mix")
		seed    = flag.Int64("seed", 1, "seed of the op stream")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "must be 0: the traced run is cmd/trace")
	)
	flag.Parse()
	if *trace != 0 {
		return fmt.Errorf("--trace %d: the traced run is cmd/trace (run.sh picks it)", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := bench.CheckClients(); err != nil {
		return err
	}
	rate, ok := maxRate[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, bench.Names)
	}
	work, err := bench.WorkDir(*name)
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// Inputs first: none of this is set-up time.
	in, err := bench.Generate(*name, *seed, int(*seconds*rate), work)
	if err != nil {
		return err
	}
	env := bench.Stamp(*seed, in.Durable(), work)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	// Set-up, several times; the last stack serves the timed phase.
	booter := &bench.Booter{In: in, Dir: work}
	var setups, bootT, warmT []time.Duration
	var st *bench.Stack
	for b := 0; b < boots; b++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		var bt bench.BootTimes
		if st, bt, err = booter.Boot(); err != nil {
			return err
		}
		setups, bootT, warmT = append(setups, bt.Setup()), append(bootT, bt.Boot), append(warmT, bt.Warm)
	}
	setup := bench.MedianDuration(setups)
	fmt.Printf("workload %s seed %d: set-up median %.4f s over %d boots (boot %.4f s, warm-up %.4f s)\n",
		*name, *seed, setup.Seconds(), boots, bench.MedianDuration(bootT).Seconds(), bench.MedianDuration(warmT).Seconds())

	// Timed phase: only the requests are inside the clock.
	before := bench.Scrape(st.Backend)
	steal0, total0 := bench.CPUTicks()
	res := bench.NewResult(len(in.Ops))
	bench.NewClient(st.Front).Run(in.Ops, time.Duration(*seconds*float64(time.Second)), res)
	steal1, total1 := bench.CPUTicks()
	after := bench.Scrape(st.Backend)
	withStack := bench.LiveHeap()
	runtime.KeepAlive(st)
	if err := st.Close(); err != nil {
		return err
	}
	st = nil
	liveMB := float64(int64(withStack)-int64(bench.LiveHeap())) / (1 << 20)
	if res.Done == len(in.Ops) {
		fmt.Printf("warning: the pre-generated stream ran out after %d ops\n", res.Done)
	}

	// Verification runs after the clock stops and after the scrape.
	ver, err := bench.Verify(in, res, booter.RefDir())
	if err != nil {
		return err
	}
	ks := bench.ByKind(in.Ops, res, ver.Failed)
	failed := ver.FailedOps()
	completed := res.Done - failed
	opsPerS := float64(completed) / res.Wall.Seconds()
	fmt.Printf("timed: %d ops in %.3f s = %.1f ops/s, %d failed\n", res.Done, res.Wall.Seconds(), opsPerS, failed)
	if total1 > total0 {
		fmt.Printf("  CPU steal during the timed phase: %.1f%% of machine CPU time\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	bench.PrintKinds(os.Stdout, ks)
	mut := bench.Mutations(ks)
	if mut.Attempted > 0 {
		fmt.Printf("  mutate   attempted %6d failed %d  p50 %.4f ms  p99 %.4f ms  (n=%d)\n",
			mut.Attempted, mut.Failed, mut.P(0.5), mut.P(0.99), len(mut.Lat))
	}
	fmt.Printf("counters over the timed phase:")
	for _, c := range bench.Deterministic {
		if d, ok := bench.Delta(before, after, c); ok {
			fmt.Printf(" %s=%g", c, d)
		}
	}
	fmt.Printf("\nlive heap %.3f MB\n", liveMB)
	fmt.Printf("verification: %d mismatches over %d ops\n", ver.Mismatches, res.Done)
	for _, ex := range ver.Examples {
		fmt.Printf("  mismatch %s\n", ex)
	}

	line := bench.Line{
		Correct:   failed == 0 && ver.Mismatches == 0,
		Attempted: res.Done,
		Failed:    failed,
		Metrics: map[string]bench.Metric{
			"ops_per_s":    {Value: opsPerS, Unit: "1/s"},
			"bound_p50_ms": {Value: ks[bench.Bound].P(0.5), Unit: "ms"},
			"setup_s":      {Value: setup.Seconds(), Unit: "s"},
			"live_heap_mb": {Value: liveMB, Unit: "MB"},
		},
	}
	return line.Print(os.Stdout)
}
