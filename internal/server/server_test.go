package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pcbound/internal/core"
	"pcbound/internal/domain"
	"pcbound/internal/predicate"
)

// testStore builds a small closed store: a catch-all constraint covers the
// whole domain (so bounds are unconditional) and overlapping specific
// constraints force the general DFS+SAT+MILP path.
func testStore(t testing.TB) *core.Store {
	t.Helper()
	schema := domain.NewSchema(
		domain.Attr{Name: "utc", Kind: domain.Integral, Domain: domain.NewInterval(0, 23)},
		domain.Attr{Name: "branch", Kind: domain.Integral, Domain: domain.NewInterval(0, 4)},
		domain.Attr{Name: "price", Kind: domain.Continuous, Domain: domain.NewInterval(0, 500)},
	)
	store := core.NewStore(schema)
	store.MustAdd(
		core.MustPC(predicate.True(schema).Named("catchall"),
			map[string]domain.Interval{"price": domain.NewInterval(0, 500)}, 0, 50),
		core.MustPC(predicate.NewBuilder(schema).Range("utc", 6, 11).Build().Named("morning"),
			map[string]domain.Interval{"price": domain.NewInterval(5, 80)}, 2, 12),
		core.MustPC(predicate.NewBuilder(schema).Eq("branch", 2).Build().Named("branch2"),
			map[string]domain.Interval{"price": domain.NewInterval(10, 200)}, 0, 8),
		core.MustPC(predicate.NewBuilder(schema).Range("utc", 11, 14).Range("branch", 0, 1).Build().Named("peak"),
			map[string]domain.Interval{"price": domain.NewInterval(20, 120)}, 1, 6),
	)
	return store
}

// mutateStore adds one constraint that provably moves full-domain SUM(price)
// bounds (new frequency lower bound, new high-value rows).
func mutateStore(t testing.TB, store *core.Store) core.PCID {
	t.Helper()
	schema := store.Schema()
	pc := core.MustPC(predicate.NewBuilder(schema).Range("utc", 18, 22).Build().Named("evening"),
		map[string]domain.Interval{"price": domain.NewInterval(50, 450)}, 3, 9)
	ids, err := store.AddPCs(pc)
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

func newTestServer(t testing.TB, store *core.Store, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(store, nil, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func doJSON(t testing.TB, method, url string, body, out any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s: %v (body %q)", url, err, raw)
		}
	}
	return resp.StatusCode, raw
}

// testQueries mixes all five aggregates over several regions.
func testQueries() []core.QueryJSON {
	return []core.QueryJSON{
		{Agg: "COUNT"},
		{Agg: "SUM", Attr: "price"},
		{Agg: "AVG", Attr: "price", Where: map[string][2]float64{"utc": {8, 13}}},
		{Agg: "MIN", Attr: "price", Where: map[string][2]float64{"branch": {2, 2}}},
		{Agg: "MAX", Attr: "price", Where: map[string][2]float64{"utc": {0, 12}, "branch": {0, 2}}},
		{Agg: "COUNT", Where: map[string][2]float64{"price": {100, 400}}},
	}
}

// TestBoundBitIdenticalToEngine is the serving acceptance criterion: every
// range served over HTTP must be bit-identical to a direct Engine.Bound on
// the same snapshot, for every aggregate.
func TestBoundBitIdenticalToEngine(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	ref := core.NewEngine(store, nil, core.Options{})
	for i, qj := range testQueries() {
		var resp BoundResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: qj}, &resp)
		if code != http.StatusOK {
			t.Fatalf("query %d: status %d (%s)", i, code, raw)
		}
		q, err := core.QueryFromJSON(store.Schema(), qj)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Bound(q)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Range.Range()
		if math.Float64bits(got.Lo) != math.Float64bits(want.Lo) ||
			math.Float64bits(got.Hi) != math.Float64bits(want.Hi) ||
			got.LoExact != want.LoExact || got.HiExact != want.HiExact ||
			got.MaybeEmpty != want.MaybeEmpty || got.Reconciled != want.Reconciled {
			t.Fatalf("query %d: HTTP range %+v, engine range %+v", i, got, want)
		}
		if resp.Epoch != store.Epoch() {
			t.Fatalf("query %d: epoch %d, store at %d", i, resp.Epoch, store.Epoch())
		}
	}
}

// TestBatchMatchesBound checks that /v1/batch returns, per query, the exact
// range /v1/bound returns, at several parallelism levels.
func TestBatchMatchesBound(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	queries := testQueries()
	want := make([]RangeJSON, len(queries))
	for i, qj := range queries {
		var resp BoundResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: qj}, &resp)
		if code != http.StatusOK {
			t.Fatalf("bound %d: status %d (%s)", i, code, raw)
		}
		want[i] = resp.Range
	}
	for _, par := range []int{0, 1, 2, -1} {
		var resp BatchResponse
		code, raw := doJSON(t, "POST", ts.URL+"/v1/batch",
			BatchRequest{Queries: queries, Parallelism: par}, &resp)
		if code != http.StatusOK {
			t.Fatalf("par=%d: status %d (%s)", par, code, raw)
		}
		if len(resp.Ranges) != len(queries) {
			t.Fatalf("par=%d: %d ranges for %d queries", par, len(resp.Ranges), len(queries))
		}
		for i := range want {
			if resp.Ranges[i] != want[i] {
				t.Fatalf("par=%d query %d: %+v vs %+v", par, i, resp.Ranges[i], want[i])
			}
		}
	}
}

// TestMutateAndPinnedReads drives the bound → mutate → rebound cycle: the
// rebound read sees the new epoch and a moved range, the pinned read
// reproduces the old range bit-exactly, and removing the constraint again
// restores the original range at a third epoch.
func TestMutateAndPinnedReads(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	q := core.QueryJSON{Agg: "SUM", Attr: "price"}

	var before BoundResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: q}, &before); code != 200 {
		t.Fatalf("bound: %d (%s)", code, raw)
	}

	schema := store.Schema()
	add := AddRequest{Constraints: []core.PCJSON{core.EncodePC(schema, core.MustPC(
		predicate.NewBuilder(schema).Range("utc", 18, 22).Build().Named("evening"),
		map[string]domain.Interval{"price": domain.NewInterval(50, 450)}, 3, 9))}}
	var added AddResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/add", add, &added); code != 200 {
		t.Fatalf("add: %d (%s)", code, raw)
	}
	if added.Epoch <= before.Epoch || len(added.IDs) != 1 {
		t.Fatalf("add response %+v after epoch %d", added, before.Epoch)
	}

	var after BoundResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: q}, &after); code != 200 {
		t.Fatalf("rebound: %d (%s)", code, raw)
	}
	if after.Epoch != added.Epoch {
		t.Fatalf("rebound epoch %d, want %d", after.Epoch, added.Epoch)
	}
	if after.Range == before.Range {
		t.Fatal("mutation did not move the SUM range; fixture too weak")
	}

	var pinned BoundResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/bound",
		BoundRequest{Query: q, Epoch: &before.Epoch}, &pinned); code != 200 {
		t.Fatalf("pinned bound: %d (%s)", code, raw)
	}
	if pinned.Epoch != before.Epoch || pinned.Range != before.Range {
		t.Fatalf("pinned read %+v, want %+v", pinned, before)
	}

	var removed MutateResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/remove",
		RemoveRequest{ID: added.IDs[0]}, &removed); code != 200 {
		t.Fatalf("remove: %d (%s)", code, raw)
	}
	var restored BoundResponse
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: q}, &restored); code != 200 {
		t.Fatal("bound after remove failed")
	}
	if restored.Epoch != removed.Epoch || restored.Range != before.Range {
		t.Fatalf("after remove: %+v, want range %+v at epoch %d", restored, before.Range, removed.Epoch)
	}
}

// TestMutationEpochPinnableWithoutRead checks the race-free mutate →
// pinned-read chain: an epoch returned by a mutation must stay pinnable
// even when further mutations land before any read binds it.
func TestMutationEpochPinnableWithoutRead(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	schema := store.Schema()
	mk := func(name string, khi int) AddRequest {
		return AddRequest{Constraints: []core.PCJSON{core.EncodePC(schema, core.MustPC(
			predicate.NewBuilder(schema).Range("utc", 2, 4).Build().Named(name),
			map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 0, khi))}}
	}
	var first, second AddResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/add", mk("a", 3), &first); code != 200 {
		t.Fatalf("add: %d (%s)", code, raw)
	}
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/add", mk("b", 5), &second); code != 200 {
		t.Fatalf("add: %d (%s)", code, raw)
	}
	if second.Epoch != first.Epoch+1 {
		t.Fatalf("epochs %d, %d: not consecutive", first.Epoch, second.Epoch)
	}
	// Pin to the first mutation's epoch: no read ever bound it, but the
	// mutation itself must have registered it.
	var pinned BoundResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/bound",
		BoundRequest{Query: core.QueryJSON{Agg: "COUNT"}, Epoch: &first.Epoch}, &pinned)
	if code != 200 {
		t.Fatalf("pinned bound at mutation epoch %d: %d (%s)", first.Epoch, code, raw)
	}
	if pinned.Epoch != first.Epoch {
		t.Fatalf("pinned read at epoch %d, want %d", pinned.Epoch, first.Epoch)
	}
}

// TestReplaceEndpoint swaps a constraint in place and checks the epoch and
// 404 behaviour for unknown ids.
func TestReplaceEndpoint(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	var st StoreResponse
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/store", nil, &st); code != 200 {
		t.Fatalf("store: %d (%s)", code, raw)
	}
	if len(st.IDs) != store.Len() || !st.Closed {
		t.Fatalf("store response %+v", st)
	}
	// Tighten the "morning" constraint (index 1).
	repl := ReplaceRequest{ID: st.IDs[1], Constraint: st.Constraints[1]}
	repl.Constraint.KHi = 10
	var mresp MutateResponse
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/replace", repl, &mresp); code != 200 {
		t.Fatalf("replace: %d (%s)", code, raw)
	}
	if mresp.Epoch != store.Epoch() {
		t.Fatalf("replace epoch %d, store at %d", mresp.Epoch, store.Epoch())
	}
	if code, _ := doJSON(t, "POST", ts.URL+"/v1/store/replace",
		ReplaceRequest{ID: 9999, Constraint: st.Constraints[1]}, nil); code != http.StatusNotFound {
		t.Fatalf("replace unknown id: status %d, want 404", code)
	}
}

// TestMalformedRequests table-drives the 4xx surface: bad JSON, bad queries,
// bad constraints, unknown ids, missing epochs, wrong methods.
func TestMalformedRequests(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"bound not json", "POST", "/v1/bound", "not json", 400, "parsing request body"},
		{"bound unknown agg", "POST", "/v1/bound", `{"query":{"agg":"MEDIAN"}}`, 400, "unknown aggregate"},
		{"bound missing attr", "POST", "/v1/bound", `{"query":{"agg":"SUM"}}`, 400, "needs an attr"},
		{"bound unknown attr", "POST", "/v1/bound", `{"query":{"agg":"SUM","attr":"weight"}}`, 400, "unknown attribute"},
		{"bound unknown where attr", "POST", "/v1/bound", `{"query":{"agg":"COUNT","where":{"weight":[0,1]}}}`, 400, "unknown where attribute"},
		{"bound unretained epoch", "POST", "/v1/bound", `{"query":{"agg":"COUNT"},"epoch":999}`, 410, "not retained"},
		{"batch empty", "POST", "/v1/batch", `{"queries":[]}`, 400, "no queries"},
		{"batch bad query", "POST", "/v1/batch", `{"queries":[{"agg":"COUNT"},{"agg":"NOPE"}]}`, 400, "query 1"},
		{"batch bad parallelism", "POST", "/v1/batch", `{"queries":[{"agg":"COUNT"}],"parallelism":-2}`, 400, "parallelism"},
		{"add empty", "POST", "/v1/store/add", `{"constraints":[]}`, 400, "no constraints"},
		{"add bad window", "POST", "/v1/store/add", `{"constraints":[{"predicate":{"utc":[1,2]},"klo":5,"khi":2}]}`, 400, "frequency window"},
		{"add unknown attr", "POST", "/v1/store/add", `{"constraints":[{"predicate":{"weight":[1,2]},"khi":2}]}`, 400, "unknown predicate attribute"},
		{"remove not json", "POST", "/v1/store/remove", `{`, 400, "parsing request body"},
		{"remove unknown id", "POST", "/v1/store/remove", `{"id":424242}`, 404, "no constraint"},
		{"replace bad constraint", "POST", "/v1/store/replace", `{"id":1,"constraint":{"predicate":{"utc":[1,2]},"klo":3,"khi":1}}`, 400, "frequency window"},
		{"bound wrong method", "GET", "/v1/bound", "", 405, ""},
		{"unknown path", "POST", "/v1/nope", "{}", 404, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, raw, tc.wantCode)
			}
			if tc.wantErr == "" {
				return
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil {
				t.Fatalf("error body %q is not an ErrorResponse: %v", raw, err)
			}
			if !strings.Contains(er.Error, tc.wantErr) {
				t.Fatalf("error %q, want substring %q", er.Error, tc.wantErr)
			}
		})
	}
	// Mutations must not have slipped through: the store is untouched (the
	// boot-time MustAdd accounts for epoch 1).
	if store.Epoch() != 1 || store.Len() != 4 {
		t.Fatalf("malformed requests mutated the store: epoch %d, len %d", store.Epoch(), store.Len())
	}
}

// TestBackpressure429 saturates the limiter directly and checks that query
// endpoints shed load with 429 + Retry-After while mutations and health
// stay available, then recover once capacity frees up.
func TestBackpressure429(t *testing.T) {
	store := testStore(t)
	s := New(store, nil, Config{MaxInflight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	granted, ok := s.lim.tryAcquire(1)
	if !ok {
		t.Fatal("could not saturate the limiter")
	}
	code, raw := doJSON(t, "POST", ts.URL+"/v1/bound",
		BoundRequest{Query: core.QueryJSON{Agg: "COUNT"}}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated bound: status %d (%s), want 429", code, raw)
	}
	var er ErrorResponse
	if err := json.Unmarshal(raw, &er); err != nil || !strings.Contains(er.Error, "capacity") {
		t.Fatalf("429 body %q", raw)
	}
	resp, err := http.Post(ts.URL+"/v1/bound", "application/json",
		strings.NewReader(`{"query":{"agg":"COUNT"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Batches self-admit by fan-out weight, so a saturated limiter rejects
	// them too.
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/batch",
		BatchRequest{Queries: testQueries()}, nil); code != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d (%s), want 429", code, raw)
	}
	// Health and mutations are not admission-controlled.
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, nil); code != 200 {
		t.Fatalf("healthz during saturation: %d", code)
	}
	s.lim.release(granted)
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/bound",
		BoundRequest{Query: core.QueryJSON{Agg: "COUNT"}}, nil); code != 200 {
		t.Fatalf("bound after release: %d (%s)", code, raw)
	}
	if got, _ := doJSON(t, "GET", ts.URL+"/metrics", nil, nil); got != 200 {
		t.Fatal("metrics failed")
	}
}

// TestConcurrentTraffic hammers bound/batch/mutate from many goroutines
// (run under -race in CI): every response must be well-formed, and reads
// must never observe a torn store.
func TestConcurrentTraffic(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				switch (w + i) % 3 {
				case 0:
					var resp BoundResponse
					code, raw := doJSON(t, "POST", ts.URL+"/v1/bound",
						BoundRequest{Query: core.QueryJSON{Agg: "SUM", Attr: "price"}}, &resp)
					if code != 200 && code != 429 {
						errCh <- fmt.Errorf("bound: %d (%s)", code, raw)
					}
					if code == 200 && resp.Range.Lo > resp.Range.Hi {
						errCh <- fmt.Errorf("inverted SUM range %+v", resp.Range)
					}
				case 1:
					code, raw := doJSON(t, "POST", ts.URL+"/v1/batch",
						BatchRequest{Queries: testQueries()}, nil)
					if code != 200 && code != 429 {
						errCh <- fmt.Errorf("batch: %d (%s)", code, raw)
					}
				case 2:
					var added AddResponse
					schema := store.Schema()
					add := AddRequest{Constraints: []core.PCJSON{core.EncodePC(schema, core.MustPC(
						predicate.NewBuilder(schema).Range("utc", float64(w), float64(w+2)).Build(),
						map[string]domain.Interval{"price": domain.NewInterval(0, 100)}, 0, 3))}}
					if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/add", add, &added); code != 200 {
						errCh <- fmt.Errorf("add: %d (%s)", code, raw)
						continue
					}
					if code, raw := doJSON(t, "POST", ts.URL+"/v1/store/remove",
						RemoveRequest{ID: added.IDs[0]}, nil); code != 200 {
						errCh <- fmt.Errorf("remove: %d (%s)", code, raw)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestGracefulShutdownDrain starts a heavy batch, waits until it is
// in-flight (the limiter slot is held), then shuts the server down: the
// batch must complete with 200 — drained, not dropped — and Shutdown must
// return cleanly.
func TestGracefulShutdownDrain(t *testing.T) {
	store := testStore(t)
	s := New(store, nil, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// A batch heavy enough to still be running when Shutdown begins:
	// sequential on purpose, repeated queries defeat neither MILP nor LP work.
	queries := make([]core.QueryJSON, 400)
	for i := range queries {
		queries[i] = testQueries()[i%len(testQueries())]
	}
	type result struct {
		code int
		resp BatchResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		raw, _ := json.Marshal(BatchRequest{Queries: queries, Parallelism: 1})
		resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(raw))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var br BatchResponse
		body, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(body, &br)
		done <- result{code: resp.StatusCode, resp: br}
	}()

	// Wait for the batch to hold its admission slot (or, if the machine is
	// absurdly fast, to have finished already — the assertion below covers
	// both).
	deadline := time.Now().Add(5 * time.Second)
	for s.lim.inflight() == 0 && time.Now().Before(deadline) {
		select {
		case r := <-done:
			done <- r
			deadline = time.Now() // already finished; proceed to shutdown
		default:
			time.Sleep(time.Millisecond)
		}
	}

	s.StartDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight batch dropped during shutdown: %v", r.err)
	}
	if r.code != http.StatusOK || len(r.resp.Ranges) != len(queries) {
		t.Fatalf("in-flight batch: status %d, %d ranges (want 200, %d)", r.code, len(r.resp.Ranges), len(queries))
	}
}

// TestHealthzDraining checks the ok → draining transition.
func TestHealthzDraining(t *testing.T) {
	store := testStore(t)
	s := New(store, nil, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var h HealthResponse
	if code, _ := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
	s.StartDraining()
	code, raw := doJSON(t, "GET", ts.URL+"/healthz", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d (%s), want 503", code, raw)
	}
	var dr HealthResponse
	if err := json.Unmarshal(raw, &dr); err != nil || dr.Status != "draining" {
		t.Fatalf("draining body %q", raw)
	}
}

// TestMetricsEndpoint checks the gauge/counter surface the CI gauntlet and
// dashboards scrape.
func TestMetricsEndpoint(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: core.QueryJSON{Agg: "COUNT"}}, nil)
	mutateStore(t, store)
	doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: core.QueryJSON{Agg: "COUNT"}}, nil)
	code, raw := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	body := string(raw)
	for _, want := range []string{
		"pcserved_store_epoch 2",
		"pcserved_store_constraints 5",
		`pcserved_requests_total{endpoint="bound",code="200"} 2`,
		`pcserved_request_seconds{endpoint="bound",quantile="0.99"}`,
		"pcserved_cache_hits_total",
		"pcserved_inflight_capacity",
		"pcserved_rejected_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestBound400NamesQuery is the wire-layer regression test for actionable
// /v1/bound errors: a 400 body must identify the query that caused it —
// aggregate, attribute, and where clause — not just the validation failure.
func TestBound400NamesQuery(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	code, raw := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{
		Query: core.QueryJSON{Agg: "MEDIAN", Attr: "price",
			Where: map[string][2]float64{"utc": {3, 9}}},
	}, nil)
	if code != 400 {
		t.Fatalf("status %d, want 400 (body %s)", code, raw)
	}
	body := string(raw)
	for _, want := range []string{"MEDIAN", "price", "utc in [3, 9]", "unknown aggregate"} {
		if !strings.Contains(body, want) {
			t.Errorf("400 body %q does not identify the query (missing %q)", body, want)
		}
	}
	// Same contract for batch entries: the failing query's index and body.
	code, raw = doJSON(t, "POST", ts.URL+"/v1/batch", BatchRequest{
		Queries: []core.QueryJSON{{Agg: "COUNT"}, {Agg: "NOPE", Attr: "price"}},
	}, nil)
	if code != 400 {
		t.Fatalf("batch status %d, want 400 (body %s)", code, raw)
	}
	for _, want := range []string{"query 1", "NOPE(price)"} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("batch 400 body %q missing %q", raw, want)
		}
	}
}

// TestMetricsSchedulerAndCellCache: /metrics exports the shared scheduler's
// counters and the solve memo's hit/miss counters (under the
// pcserved_cellcache_* names), and repeated traffic actually hits the memo.
func TestMetricsSchedulerAndCellCache(t *testing.T) {
	store := testStore(t)
	ts := newTestServer(t, store, Config{})
	q := core.QueryJSON{Agg: "MIN", Attr: "price", Where: map[string][2]float64{"utc": {0, 12}}}
	for i := 0; i < 3; i++ {
		if code, raw := doJSON(t, "POST", ts.URL+"/v1/bound", BoundRequest{Query: q}, nil); code != 200 {
			t.Fatalf("bound: %d (%s)", code, raw)
		}
	}
	code, raw := doJSON(t, "GET", ts.URL+"/metrics", nil, nil)
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	body := string(raw)
	for _, want := range []string{
		"pcserved_sched_workers ",
		"pcserved_sched_queue_depth ",
		"pcserved_sched_tasks_total ",
		"pcserved_cellcache_hits_total ",
		"pcserved_cellcache_misses_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	var hits int64
	for _, line := range strings.Split(body, "\n") {
		if n, err := fmt.Sscanf(line, "pcserved_cellcache_hits_total %d", &hits); n == 1 && err == nil {
			break
		}
	}
	if hits == 0 {
		t.Errorf("repeated MIN traffic produced no solve-memo hits:\n%s", body)
	}
}
