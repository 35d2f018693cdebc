// Command pcload is a closed-loop load generator for pcserved: a fixed pool
// of workers, each waiting for its response before issuing the next request,
// driving a configurable mix of single bounds, batches, and store mutations.
// It reports throughput and p50/p99 latency per operation and exits non-zero
// on any hard failure (non-2xx other than 429 backpressure, or a response
// that fails verification).
//
// Before the load phase it can verify serving correctness end to end: it
// fetches the store spec (GET /v1/store), rebuilds the same constraint set
// locally with the library, and checks that snapshot-pinned HTTP reads
// return bit-identical ranges to a direct Engine.Bound on the same
// constraint state — the serving layer must add transport, not error. The
// same phase cross-checks the tiered-precision contract: forced-summary
// reads of the same queries must return supersets of the local exact range.
//
// -precision/-max-width opt the load phase's queries into tiered serving;
// the summary then reports the served precision mix (how many queries the
// summary tier answered vs. the exact solver). -skew draws query regions
// and mutation targets from a zipf distribution instead of uniformly, so
// hot-spot workloads (where the same decompositions are hit repeatedly and
// mutations chase the queries) can be generated alongside uniform ones.
//
// Against a replicated deployment, -target takes a comma-separated
// primary[,replica,...] list: mutations go to the primary, reads fan out
// across the replicas, and the -verify phase additionally posts every
// pinned query to each replica and requires the answer bitwise identical to
// the primary's — the end-to-end form of the replication bit-identity
// guarantee (a replica still catching up holds the read until its tail
// reaches the pinned epoch).
//
// Usage:
//
//	pcload -addr http://127.0.0.1:8080                  # 10s, 8 workers
//	pcload -addr http://127.0.0.1:8080 -quick           # 2s CI smoke
//	pcload -duration 30s -concurrency 32 \
//	       -mix bound=6,batch=2,mutate=2 -verify 100
//	pcload -skew 1.2 -precision auto -max-width 500     # skewed, tier-opted
//	pcload -target http://primary:8080,http://replica:8081 -verify 50
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcbound/internal/core"
	"pcbound/internal/domain"
	"pcbound/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "pcserved base URL")
		target      = flag.String("target", "", "comma-separated pcserved base URLs: primary[,replica,...] — mutations go to the primary, reads fan out across the replicas (overrides -addr)")
		duration    = flag.Duration("duration", 10*time.Second, "load phase duration")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers")
		mix         = flag.String("mix", "bound=6,batch=2,mutate=2", "operation weights, e.g. bound=6,batch=2,mutate=2")
		batchSize   = flag.Int("batch-size", 8, "queries per batch request")
		verifyN     = flag.Int("verify", 50, "pinned-read queries to verify bit-identical against a local engine before the load phase (0 = skip)")
		seed        = flag.Int64("seed", 1, "random seed")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		retries     = flag.Int("retries", 8, "attempts per request for transient failures (429/503/connection errors); 1 disables retries")
		quick       = flag.Bool("quick", false, "CI smoke configuration: -duration 2s -concurrency 4 -verify 25")
		skew        = flag.Float64("skew", 0, "zipf skew for query regions and mutation targets (0 = uniform; larger = hotter hot spot)")
		precision   = flag.String("precision", "", "tier request field on bound/batch: exact, auto or summary (empty = omit)")
		maxWidth    = flag.Float64("max-width", -1, "tier width budget on bound/batch; implies auto when -precision is empty (negative = omit)")
	)
	flag.Parse()
	if *quick {
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["duration"] {
			*duration = 2 * time.Second
		}
		if !set["concurrency"] {
			*concurrency = 4
		}
		if !set["verify"] {
			*verifyN = 25
		}
	}
	if *concurrency < 1 || *batchSize < 1 {
		fail("concurrency and batch-size must be >= 1")
	}
	if *skew < 0 {
		fail("-skew must be >= 0")
	}
	switch *precision {
	case "", "exact", "auto", "summary":
	default:
		fail("-precision must be exact, auto or summary")
	}
	var budget *server.Num
	if *maxWidth >= 0 {
		n := server.Num(*maxWidth)
		budget = &n
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fail("%v", err)
	}

	client := &http.Client{Timeout: *timeout}
	// -target names a replication topology: the first URL takes mutations
	// (and seeds verification), the rest serve reads. Without replicas every
	// operation goes to the primary, exactly as -addr always worked.
	var replicas []string
	base := strings.TrimRight(*addr, "/")
	if *target != "" {
		parts := strings.Split(*target, ",")
		base = strings.TrimRight(strings.TrimSpace(parts[0]), "/")
		for _, p := range parts[1:] {
			if p = strings.TrimRight(strings.TrimSpace(p), "/"); p != "" {
				replicas = append(replicas, p)
			}
		}
	}
	readBases := replicas
	if len(readBases) == 0 {
		readBases = []string{base}
	}
	r := newRetrier(client, *retries, *seed)

	st, err := fetchStore(r, base)
	if err != nil {
		fail("fetching %s/v1/store: %v", base, err)
	}
	schema, err := schemaOf(st)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("pcload: target %s — %d constraints, epoch %d, %d attributes\n",
		base, len(st.Constraints), st.Epoch, schema.Len())
	if len(replicas) > 0 {
		fmt.Printf("pcload: fanning reads across %d replica(s): %s\n", len(replicas), strings.Join(replicas, ", "))
	}

	if *verifyN > 0 {
		summaries, err := verifyPinned(r, base, replicas, st, schema, *verifyN, *seed)
		if err != nil {
			fail("verification: %v", err)
		}
		fmt.Printf("pcload: verified %d pinned reads bit-identical to a local engine at epoch %d\n", *verifyN, st.Epoch)
		if len(replicas) > 0 {
			fmt.Printf("pcload: verified %d pinned reads bit-identical across %d replica(s)\n", *verifyN, len(replicas))
		}
		fmt.Printf("pcload: verified %d summary-tier responses are supersets of the local exact range (%d escalated or untiered)\n",
			summaries, *verifyN-summaries)
	}

	stats := runLoad(r, base, schema, loadConfig{
		duration:    *duration,
		concurrency: *concurrency,
		weights:     weights,
		batchSize:   *batchSize,
		seed:        *seed,
		skew:        *skew,
		precision:   *precision,
		maxWidth:    budget,
		readBases:   readBases,
	})
	stats.report(os.Stdout, *duration)
	r.summary(os.Stdout)
	reportServerMetrics(client, base, os.Stdout)
	if stats.hardErrors() > 0 {
		os.Exit(1)
	}
}

// reportServerMetrics scrapes /metrics after the load phase and surfaces the
// server-side intra-query picture: the shared scheduler's queue depth and
// task counters, and the solve-memo hit rate (the pcserved_cellcache_*
// counters). Absent counters (an
// older server) are skipped rather than failing the run — the load result
// stands on its own.
func reportServerMetrics(client *http.Client, base string, w io.Writer) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		fmt.Fprintf(w, "pcload: metrics scrape failed: %v\n", err)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		fmt.Fprintf(w, "pcload: metrics scrape failed: status %d\n", resp.StatusCode)
		return
	}
	vals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			vals[fields[0]] = v
		}
	}
	if tasks, ok := vals["pcserved_sched_tasks_total"]; ok {
		fmt.Fprintf(w, "pcload: server scheduler: %d workers, queue depth %.0f (max %.0f), %.0f cell tasks (%.0f run by waiting callers)\n",
			int(vals["pcserved_sched_workers"]), vals["pcserved_sched_queue_depth"],
			vals["pcserved_sched_queue_depth_max"], tasks, vals["pcserved_sched_caller_tasks_total"])
	}
	hits, hok := vals["pcserved_cellcache_hits_total"]
	misses, mok := vals["pcserved_cellcache_misses_total"]
	if hok && mok && hits+misses > 0 {
		fmt.Fprintf(w, "pcload: server solve memo: %.1f%% hit rate (%.0f hits / %.0f misses)\n",
			100*hits/(hits+misses), hits, misses)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pcload: "+format+"\n", args...)
	os.Exit(1)
}

// parseMix parses "bound=6,batch=2,mutate=2" into weights.
func parseMix(s string) (map[string]int, error) {
	w := map[string]int{"bound": 0, "batch": 0, "mutate": 0}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want op=weight)", part)
		}
		if _, known := w[name]; !known {
			return nil, fmt.Errorf("unknown op %q in mix (want bound, batch, mutate)", name)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		w[name] = n
	}
	if w["bound"]+w["batch"]+w["mutate"] == 0 {
		return nil, fmt.Errorf("mix %q has zero total weight", s)
	}
	return w, nil
}

func fetchStore(r *retrier, base string) (*server.StoreResponse, error) {
	// Retried like everything else: against a freshly restarted server this
	// rides out the recovery gate's 503s until replay completes.
	var st server.StoreResponse
	code, raw, err := r.get(base+"/v1/store", &st)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d (%s)", code, raw)
	}
	return &st, nil
}

// schemaOf rebuilds the schema a /v1/store response describes.
func schemaOf(st *server.StoreResponse) (*domain.Schema, error) {
	raw, err := json.Marshal(core.SpecJSON{Schema: st.Schema})
	if err != nil {
		return nil, err
	}
	_, schema, err := core.DecodeSet(raw)
	if err != nil {
		return nil, fmt.Errorf("rebuilding schema: %w", err)
	}
	return schema, nil
}

// verifyPinned rebuilds the fetched constraint state locally and checks that
// pinned HTTP reads are bit-identical to direct engine bounds over it, and
// that forced-summary reads of the same queries are supersets of the local
// exact range (the summary tier's soundness contract, checked end to end).
// It returns how many queries the summary tier actually answered — the tier
// only exists at the store frontier, so a concurrent writer moving the epoch
// past the pinned snapshot makes the server escalate to exact; those count
// as escalations, not failures.
//
// With replicas, every pinned query is also posted to each replica and
// compared bitwise against the same local range: the epoch pin names one
// immutable answer, so primary and follower must agree to the bit or
// replication is broken. A follower still catching up holds the read until
// its tail reaches the pinned epoch (the implied min_epoch gate), so this
// check is exact even against a lagging replica.
func verifyPinned(r *retrier, base string, replicas []string, st *server.StoreResponse, schema *domain.Schema, n int, seed int64) (int, error) {
	raw, err := json.Marshal(core.SpecJSON{Schema: st.Schema, Constraints: st.Constraints})
	if err != nil {
		return 0, err
	}
	local, _, err := core.DecodeSet(raw)
	if err != nil {
		return 0, fmt.Errorf("rebuilding store: %w", err)
	}
	engine := core.NewEngine(local, nil, core.Options{})
	p := newPicker(rand.New(rand.NewSource(seed)), 0) // uniform: verify covers the whole domain
	summaries := 0
	for i := 0; i < n; i++ {
		// The query is drawn once per i, so the verified sequence is
		// reproducible from -seed no matter how many 429s the retrier
		// absorbs along the way.
		qj := randomQuery(p, schema)
		var resp server.BoundResponse
		code, body, err := r.post(base+"/v1/bound",
			server.BoundRequest{Query: qj, Epoch: &st.Epoch}, &resp)
		if err != nil {
			return summaries, err
		}
		if code != http.StatusOK {
			return summaries, fmt.Errorf("query %d (%+v): status %d (%s) — pinned epoch %d may have been evicted; rerun verification against a fresh server", i, qj, code, body, st.Epoch)
		}
		q, err := core.QueryFromJSON(schema, qj)
		if err != nil {
			return summaries, fmt.Errorf("query %d: %v", i, err)
		}
		want, err := engine.Bound(q)
		if err != nil {
			return summaries, fmt.Errorf("query %d: local bound: %v", i, err)
		}
		got := resp.Range.Range()
		if !bitIdentical(got, want) {
			return summaries, fmt.Errorf("query %d (%+v): served range %+v != local range %+v", i, qj, got, want)
		}
		for _, rep := range replicas {
			var rresp server.BoundResponse
			code, body, err := r.post(rep+"/v1/bound",
				server.BoundRequest{Query: qj, Epoch: &st.Epoch}, &rresp)
			if err != nil {
				return summaries, fmt.Errorf("query %d: replica %s: %v", i, rep, err)
			}
			if code != http.StatusOK {
				return summaries, fmt.Errorf("query %d (%+v): replica %s: status %d (%s) — its tail may not have reached epoch %d within the staleness budget", i, qj, rep, code, body, st.Epoch)
			}
			if rresp.Epoch != st.Epoch {
				return summaries, fmt.Errorf("query %d: replica %s answered at epoch %d, pinned %d", i, rep, rresp.Epoch, st.Epoch)
			}
			if rgot := rresp.Range.Range(); !bitIdentical(rgot, want) {
				return summaries, fmt.Errorf("query %d (%+v): replica %s range %+v != primary/local range %+v at epoch %d",
					i, qj, rep, rgot, want, st.Epoch)
			}
		}

		var sresp server.BoundResponse
		code, body, err = r.post(base+"/v1/bound",
			server.BoundRequest{Query: qj, Epoch: &st.Epoch, Precision: "summary"}, &sresp)
		if err != nil {
			return summaries, err
		}
		if code != http.StatusOK {
			return summaries, fmt.Errorf("query %d (%+v): forced summary: status %d (%s)", i, qj, code, body)
		}
		if sresp.Precision != "summary" {
			continue // escalated (pinned epoch behind the frontier) or pre-tiering server
		}
		sum := sresp.Range.Range()
		// An empty exact range (lo > hi) is contained in anything.
		if want.Lo <= want.Hi && (sum.Lo > want.Lo || sum.Hi < want.Hi) {
			return summaries, fmt.Errorf("query %d (%+v): summary range [%v,%v] is not a superset of exact [%v,%v]",
				i, qj, sum.Lo, sum.Hi, want.Lo, want.Hi)
		}
		if !sum.MaybeEmpty && want.MaybeEmpty {
			return summaries, fmt.Errorf("query %d (%+v): summary claims a certainly non-empty instance set, exact disagrees", i, qj)
		}
		summaries++
	}
	return summaries, nil
}

// bitIdentical compares two ranges field by field, with the float endpoints
// compared by their bit patterns (so -0 vs 0 or differing NaNs fail).
func bitIdentical(got, want core.Range) bool {
	return math.Float64bits(got.Lo) == math.Float64bits(want.Lo) &&
		math.Float64bits(got.Hi) == math.Float64bits(want.Hi) &&
		got.LoExact == want.LoExact && got.HiExact == want.HiExact &&
		got.MaybeEmpty == want.MaybeEmpty && got.Reconciled == want.Reconciled
}

type loadConfig struct {
	duration    time.Duration
	concurrency int
	weights     map[string]int
	batchSize   int
	seed        int64
	skew        float64
	precision   string
	maxWidth    *server.Num
	// readBases are the base URLs reads fan out across (the replicas under
	// -target, or just the primary). Mutations always go to the primary.
	readBases []string
}

// skewBuckets is the resolution of the zipf hot spot: the domain of every
// attribute is split into this many equal slices and a zipf draw picks the
// slice a region starts in (slice 0 hottest).
const skewBuckets = 64

// picker draws query/mutation regions: uniformly, or zipf-skewed toward the
// low end of every attribute's domain so queries and mutations concentrate
// on the same hot spot.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newPicker(rng *rand.Rand, skew float64) *picker {
	p := &picker{rng: rng}
	if skew > 0 {
		// rand.NewZipf needs s > 1; the flag's 0 = uniform, so shift by 1.
		p.zipf = rand.NewZipf(rng, 1+skew, 1, skewBuckets-1)
	}
	return p
}

// start draws the fractional position (in [0,1)) where a region begins.
func (p *picker) start() float64 {
	if p.zipf == nil {
		return p.rng.Float64()
	}
	return (float64(p.zipf.Uint64()) + p.rng.Float64()) / skewBuckets
}

// opStats aggregates one operation type's outcomes across all workers.
type opStats struct {
	ok        int
	throttled int
	errors    []string
	latencies []time.Duration
}

type loadStats struct {
	ops map[string]*opStats
	// served counts queries by the precision tag of their response ("exact"
	// or "summary"); empty tags (a pre-tiering server) are not counted.
	served map[string]int
}

func (s *loadStats) hardErrors() int {
	n := 0
	for _, op := range s.ops {
		n += len(op.errors)
	}
	return n
}

func (s *loadStats) report(w io.Writer, d time.Duration) {
	total, throttled, failed := 0, 0, 0
	for _, op := range s.ops {
		total += op.ok + op.throttled + len(op.errors)
		throttled += op.throttled
		failed += len(op.errors)
	}
	fmt.Fprintf(w, "pcload: %d requests in %v (%.1f req/s), %d failed, %d throttled (429)\n",
		total, d, float64(total)/d.Seconds(), failed, throttled)
	if tagged := s.served["exact"] + s.served["summary"]; tagged > 0 {
		fmt.Fprintf(w, "pcload: served precision mix: %d exact, %d summary (%.1f%% summary)\n",
			s.served["exact"], s.served["summary"], 100*float64(s.served["summary"])/float64(tagged))
	}
	for _, name := range []string{"bound", "batch", "mutate"} {
		op := s.ops[name]
		lat := append([]time.Duration(nil), op.latencies...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p50, p90, p99 := quantileDur(lat, 0.5), quantileDur(lat, 0.9), quantileDur(lat, 0.99)
		fmt.Fprintf(w, "  %-6s %6d ok  %4d throttled  %3d failed  p50 %8v  p90 %8v  p99 %8v\n",
			name, op.ok, op.throttled, len(op.errors),
			p50.Round(10*time.Microsecond), p90.Round(10*time.Microsecond), p99.Round(10*time.Microsecond))
	}
	shown := 0
	for _, name := range []string{"bound", "batch", "mutate"} {
		for _, msg := range s.ops[name].errors {
			if shown == 5 {
				fmt.Fprintf(w, "  … more errors elided\n")
				return
			}
			fmt.Fprintf(w, "  ERROR %s: %s\n", name, msg)
			shown++
		}
	}
}

func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// runLoad drives the closed-loop phase: each worker owns a deterministic
// RNG, a stack of constraint ids it added (so mutations clean up after
// themselves and the store size stays bounded), and merges its stats on
// exit.
func runLoad(r *retrier, base string, schema *domain.Schema, cfg loadConfig) *loadStats {
	deadline := time.Now().Add(cfg.duration)
	results := make([]*loadStats, cfg.concurrency)
	var wg sync.WaitGroup
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = loadWorker(r, base, schema, cfg, w, deadline)
		}(w)
	}
	wg.Wait()
	merged := &loadStats{ops: map[string]*opStats{
		"bound": {}, "batch": {}, "mutate": {},
	}, served: map[string]int{}}
	for _, r := range results {
		for name, op := range r.ops {
			m := merged.ops[name]
			m.ok += op.ok
			m.throttled += op.throttled
			m.errors = append(m.errors, op.errors...)
			m.latencies = append(m.latencies, op.latencies...)
		}
		for tag, n := range r.served {
			merged.served[tag] += n
		}
	}
	return merged
}

func loadWorker(r *retrier, base string, schema *domain.Schema, cfg loadConfig, w int, deadline time.Time) *loadStats {
	p := newPicker(rand.New(rand.NewSource(cfg.seed+int64(w)*7919)), cfg.skew)
	stats := &loadStats{ops: map[string]*opStats{
		"bound": {}, "batch": {}, "mutate": {},
	}, served: map[string]int{}}
	wTotal := cfg.weights["bound"] + cfg.weights["batch"] + cfg.weights["mutate"]
	var myIDs []uint64
	for time.Now().Before(deadline) {
		pick := p.rng.Intn(wTotal)
		var name string
		switch {
		case pick < cfg.weights["bound"]:
			name = "bound"
		case pick < cfg.weights["bound"]+cfg.weights["batch"]:
			name = "batch"
		default:
			name = "mutate"
		}
		op := stats.ops[name]
		start := time.Now()
		code, errMsg := doOp(r, base, schema, p, name, cfg, &myIDs, stats.served)
		elapsed := time.Since(start)
		switch {
		case errMsg != "":
			op.errors = append(op.errors, errMsg)
		case code == http.StatusTooManyRequests:
			op.throttled++
			time.Sleep(10 * time.Millisecond) // honor backpressure
		default:
			op.ok++
			op.latencies = append(op.latencies, elapsed)
		}
	}
	// Leave the store as found: retract this worker's surviving additions.
	for _, id := range myIDs {
		_, _, _ = r.post(base+"/v1/store/remove", server.RemoveRequest{ID: id}, nil)
	}
	return stats
}

// doOp issues one operation. It returns the status code and, for hard
// failures (transport errors, unexpected statuses, malformed bodies), a
// non-empty error message. 429 is backpressure, not failure. Precision tags
// on successful query responses are tallied into served.
func doOp(r *retrier, base string, schema *domain.Schema, p *picker, name string, cfg loadConfig, myIDs *[]uint64, served map[string]int) (int, string) {
	rng := p.rng
	// Reads fan out across the read targets (replicas under -target);
	// mutations always go to base, the primary.
	readBase := base
	if len(cfg.readBases) > 0 {
		readBase = cfg.readBases[rng.Intn(len(cfg.readBases))]
	}
	switch name {
	case "bound":
		var resp server.BoundResponse
		code, body, err := r.post(readBase+"/v1/bound",
			server.BoundRequest{Query: randomQuery(p, schema), Precision: cfg.precision, MaxWidth: cfg.maxWidth}, &resp)
		if err == nil && code == http.StatusOK && resp.Precision != "" {
			served[resp.Precision]++
		}
		return checkQueryResp(code, body, err, 1, []server.RangeJSON{resp.Range})
	case "batch":
		queries := make([]core.QueryJSON, cfg.batchSize)
		for i := range queries {
			queries[i] = randomQuery(p, schema)
		}
		var resp server.BatchResponse
		code, body, err := r.post(readBase+"/v1/batch",
			server.BatchRequest{Queries: queries, Precision: cfg.precision, MaxWidth: cfg.maxWidth}, &resp)
		if err == nil && code == http.StatusOK {
			for _, tag := range resp.Precisions {
				if tag != "" {
					served[tag]++
				}
			}
		}
		return checkQueryResp(code, body, err, cfg.batchSize, resp.Ranges)
	default: // mutate
		// Alternate between growing and shrinking so the store size hovers
		// around its boot state instead of drifting.
		if len(*myIDs) > 0 && rng.Intn(2) == 0 {
			id := (*myIDs)[0]
			code, body, err := r.post(base+"/v1/store/remove", server.RemoveRequest{ID: id}, nil)
			if code == http.StatusOK {
				// Pop only once the server confirms: a failed remove keeps
				// the id queued for the end-of-run cleanup.
				*myIDs = (*myIDs)[1:]
			}
			if err != nil {
				return 0, err.Error()
			}
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				return code, fmt.Sprintf("remove id %d: status %d (%s)", id, code, body)
			}
			return code, ""
		}
		var resp server.AddResponse
		code, body, err := r.post(base+"/v1/store/add",
			server.AddRequest{Constraints: []core.PCJSON{randomConstraint(p, schema)}}, &resp)
		if err != nil {
			return 0, err.Error()
		}
		if code == http.StatusOK {
			*myIDs = append(*myIDs, resp.IDs...)
			return code, ""
		}
		if code == http.StatusTooManyRequests {
			return code, ""
		}
		return code, fmt.Sprintf("add: status %d (%s)", code, body)
	}
}

func checkQueryResp(code int, body []byte, err error, wantRanges int, ranges []server.RangeJSON) (int, string) {
	if err != nil {
		return 0, err.Error()
	}
	if code == http.StatusTooManyRequests {
		return code, ""
	}
	if code != http.StatusOK {
		return code, fmt.Sprintf("status %d (%s)", code, body)
	}
	if len(ranges) != wantRanges {
		return code, fmt.Sprintf("%d ranges in response, want %d", len(ranges), wantRanges)
	}
	for i, r := range ranges {
		lo, hi := float64(r.Lo), float64(r.Hi)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return code, fmt.Sprintf("range %d is NaN: %+v", i, r)
		}
		// lo > hi is the legitimate "no instance matches" marker; anything
		// else must be an ordered interval.
	}
	return code, ""
}

// randomQuery draws an aggregate query: any of the five aggregates, over the
// full domain or a region (skew-aware) on one or two attributes.
func randomQuery(p *picker, schema *domain.Schema) core.QueryJSON {
	rng := p.rng
	aggs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	qj := core.QueryJSON{Agg: aggs[rng.Intn(len(aggs))]}
	if qj.Agg != "COUNT" {
		qj.Attr = schema.Attr(rng.Intn(schema.Len())).Name
	}
	for _, i := range pickAttrs(rng, schema.Len(), rng.Intn(3)) {
		if qj.Where == nil {
			qj.Where = map[string][2]float64{}
		}
		a := schema.Attr(i)
		qj.Where[a.Name] = randomSubrange(p, a)
	}
	return qj
}

// randomConstraint draws a constraint over a random (skew-aware) region: a
// value window on one attribute and a small frequency window. Adding it can
// only narrow coverage gaps, so a closed store stays closed under load.
func randomConstraint(p *picker, schema *domain.Schema) core.PCJSON {
	rng := p.rng
	pj := core.PCJSON{
		Name:      fmt.Sprintf("load-%d", rng.Int63()),
		Predicate: map[string][2]float64{},
		Values:    map[string][2]float64{},
	}
	for _, i := range pickAttrs(rng, schema.Len(), 1+rng.Intn(2)) {
		a := schema.Attr(i)
		pj.Predicate[a.Name] = randomSubrange(p, a)
	}
	va := schema.Attr(rng.Intn(schema.Len()))
	pj.Values[va.Name] = randomSubrange(p, va)
	pj.KLo = rng.Intn(3)
	pj.KHi = pj.KLo + rng.Intn(5)
	return pj
}

// pickAttrs draws up to n distinct attribute indices.
func pickAttrs(rng *rand.Rand, total, n int) []int {
	if n > total {
		n = total
	}
	perm := rng.Perm(total)
	return perm[:n]
}

// randomSubrange draws a non-empty subrange of an attribute's domain,
// snapped to integers for integral attributes. Under -skew the start
// position is zipf-distributed, so regions pile onto the low end of the
// domain.
func randomSubrange(p *picker, a domain.Attr) [2]float64 {
	span := a.Domain.Hi - a.Domain.Lo
	lo := a.Domain.Lo + p.start()*span*0.8
	hi := lo + p.rng.Float64()*(a.Domain.Hi-lo)
	if a.Kind == domain.Integral {
		lo, hi = math.Floor(lo), math.Ceil(hi)
	}
	return [2]float64{lo, hi}
}
