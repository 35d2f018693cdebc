// Command steady is the benchmark's steadiness mode: it runs the
// end-to-end runner k times per workload, interleaving the workloads (round
// r runs every workload with seed r+1), and prints each end-to-end
// metric's median, quartiles and spread — the distance between the
// quartiles as a share of the median, computed as Python's
// statistics.quantiles(values, n=4) does. BENCHMARK.json's bounds are set
// from this output.
//
// Usage (from the repository root; run.sh builds the runner and this
// command first):
//
//	bash perfbench/run.sh steady -k 10 -seconds 20
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pcbound/perfbench/bench"
)

func main() {
	var (
		k       = flag.Int("k", 10, "runs per workload")
		seconds = flag.Int("seconds", 20, "timed phase per run")
		bin     = flag.String("bin", filepath.Join(".bench_build", "bin", "e2e"), "end-to-end runner binary")
	)
	flag.Parse()
	// values[workload][metric] in run order.
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for r := 0; r < *k; r++ {
		for _, w := range bench.Names {
			seed := int64(r + 1)
			start := time.Now()
			line, err := runOnce(*bin, w, seed, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: %v\n", w, seed, err)
				os.Exit(1)
			}
			if !line.Correct || line.Failed > 0 {
				fmt.Fprintf(os.Stderr, "steady: %s seed %d: incorrect run (%d of %d ops failed)\n", w, seed, line.Failed, line.Attempted)
				os.Exit(1)
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			var parts []string
			for m, v := range line.Metrics {
				values[w][m] = append(values[w][m], v.Value)
				units[m] = v.Unit
				parts = append(parts, fmt.Sprintf("%s=%.6g", m, v.Value))
			}
			sort.Strings(parts)
			fmt.Printf("round %d %-14s seed %-4d %5.1fs  %s\n", r, w, seed, time.Since(start).Seconds(), strings.Join(parts, " "))
		}
	}
	fmt.Println()
	fmt.Printf("%-14s %-14s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, w := range bench.Names {
		metrics := make([]string, 0, len(values[w]))
		for m := range values[w] {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			q1, med, q3 := bench.Quartiles(values[w][m])
			fmt.Printf("%-14s %-14s %12.6g %12.6g %12.6g %7.2f%%  %s\n", w, m, q1, med, q3, 100*(q3-q1)/med, units[m])
		}
	}
}

// runOnce runs the runner and parses the JSON object on its last line.
func runOnce(bin, workload string, seed int64, seconds int) (bench.Line, error) {
	var line bench.Line
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return line, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &line)
	return line, err
}
