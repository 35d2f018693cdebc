package bench

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
)

// Deterministic are the /metrics counters that must repeat exactly across
// two runs of the same ops: with one client and no timers in the request
// path, the work they count is a function of the op stream alone.
var Deterministic = []string{
	"pcserved_cache_hits_total",
	"pcserved_cache_misses_total",
	"pcserved_cache_invalidated_total",
	"pcserved_sat_checks_total",
	"pcserved_sat_nodes_total",
	"pcserved_tier_summary_evals_total",
	"wal_appends_total",
	"wal_fsyncs_total",
	"wal_bytes_written_total",
}

// WorkDir returns a fresh per-process directory for WAL copies under the
// benchmark's build directory in the current checkout.
func WorkDir(workload string) (string, error) {
	dir := filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", workload, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// Booter boots fresh stacks for one workload, copying the WAL template for
// every boot outside the timers.
type Booter struct {
	In    *Inputs
	Dir   string
	boots int
}

// Boot brings up one more fresh stack.
func (b *Booter) Boot() (*Stack, BootTimes, error) {
	walDir, err := b.WALCopy()
	if err != nil {
		return nil, BootTimes{}, err
	}
	return Boot(b.In, walDir)
}

// WALCopy returns a fresh copy of a durable workload's WAL template ("" for
// an in-memory workload).
func (b *Booter) WALCopy() (string, error) {
	if !b.In.Durable() {
		return "", nil
	}
	b.boots++
	dir := filepath.Join(b.Dir, fmt.Sprintf("wal-%d", b.boots))
	return dir, CopyDir(b.In.Template, dir)
}

// RefDir returns a fresh directory for a reference's WAL copy.
func (b *Booter) RefDir() string {
	b.boots++
	return filepath.Join(b.Dir, fmt.Sprintf("ref-%d", b.boots))
}

// KindStats summarizes one op kind of a pass.
type KindStats struct {
	Kind      Kind
	Attempted int
	Failed    int
	// Lat holds the latencies of the kind's ops that answered 200, sorted,
	// in nanoseconds.
	Lat []float64
}

// P returns the q-quantile latency in milliseconds.
func (k *KindStats) P(q float64) float64 { return Quantile(k.Lat, q) / 1e6 }

// ByKind splits a pass's latencies by op kind. failed marks ops the
// verification rejected (nil when there was none).
func ByKind(ops []Op, res *Result, failed []bool) []*KindStats {
	out := make([]*KindStats, numKinds)
	for k := range out {
		out[k] = &KindStats{Kind: Kind(k)}
	}
	for i := 0; i < res.Done; i++ {
		ks := out[ops[i].Kind]
		ks.Attempted++
		if res.Status[i] != http.StatusOK || (failed != nil && failed[i]) {
			ks.Failed++
			continue
		}
		ks.Lat = append(ks.Lat, float64(res.Lat[i]))
	}
	for _, ks := range out {
		sort.Float64s(ks.Lat)
	}
	return out
}

// Mutations pools the three mutation kinds.
func Mutations(ks []*KindStats) *KindStats {
	m := &KindStats{Kind: Replace}
	for _, k := range []Kind{Add, Replace, Remove} {
		m.Attempted += ks[k].Attempted
		m.Failed += ks[k].Failed
		m.Lat = append(m.Lat, ks[k].Lat...)
	}
	sort.Float64s(m.Lat)
	return m
}

// PrintKinds writes one line per op kind with attempts, failures and
// latency quantiles, each with its sample count.
func PrintKinds(w io.Writer, ks []*KindStats) {
	for _, k := range ks {
		if k.Attempted == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-8s attempted %6d failed %d  p50 %.4f ms  p90 %.4f ms  p99 %.4f ms  (n=%d)\n",
			k.Kind, k.Attempted, k.Failed, k.P(0.5), k.P(0.9), k.P(0.99), len(k.Lat))
	}
}
