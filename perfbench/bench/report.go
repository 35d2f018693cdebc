package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Clients is the number of closed-loop client goroutines a run starts.
const Clients = 1

// CheckClients refuses to run more client goroutines than the machine has
// CPUs: a client waiting for a core measures the scheduler, not the stack.
func CheckClients() error {
	if n := runtime.NumCPU(); Clients > n {
		return fmt.Errorf("%d client goroutines exceed nproc %d", Clients, n)
	}
	return nil
}

// Scrape reads pcserved's /metrics through its handler. Counters are
// returned by name; one the server does not export is simply absent.
func Scrape(h http.Handler) map[string]float64 {
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// Delta is after − before for a counter both scrapes exported.
func Delta(before, after map[string]float64, name string) (float64, bool) {
	a, ok1 := after[name]
	b, ok2 := before[name]
	return a - b, ok1 && ok2
}

// Quantile returns the q-quantile (0 < q <= 1) of sorted samples by the
// nearest-rank rule.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

// Quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so the steadiness figures match what an acceptance check computes.
func Quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the last line a run prints.
type Line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Print writes the result line as one JSON object on its own line.
func (l Line) Print(w io.Writer) error {
	raw, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// Env is the environment stamp every report records.
type Env struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Fsync      string `json:"fsync"`
	WALFS      string `json:"wal_fs"`
	Clients    int    `json:"clients"`
}

// Stamp records the environment a run measured on. walDir is where durable
// workloads keep their WAL (its filesystem is part of what an fsync costs).
func Stamp(seed int64, durable bool, walDir string) Env {
	e := Env{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Go: runtime.Version(), Commit: os.Getenv("BENCH_COMMIT"),
		Seed: seed, Fsync: "none (in-memory store)", WALFS: fsName(walDir), Clients: Clients,
	}
	if e.Commit == "" {
		e.Commit = "unknown"
	}
	if durable {
		e.Fsync = "always, window " + WALWindow.String()
	}
	return e
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && string(bytes.TrimSpace(k)) == "model name" {
			return string(bytes.TrimSpace(v))
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir from its statfs magic.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
		0x58295829: "virtiofs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// CPUTicks reads the machine's CPU time counters: ticks stolen by the
// hypervisor and ticks in total. Steal explains most of the run-to-run
// spread on a shared VM, so runs report its share of the timed phase.
func CPUTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := strings.Fields(string(line))
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total
}

// LiveHeap returns the heap in use after a forced collection.
func LiveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// MedianDuration returns the median of ds.
func MedianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
