package bench

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"pcbound/internal/core"
	"pcbound/internal/router"
	"pcbound/internal/sat"
	"pcbound/internal/server"
	"pcbound/internal/wal"
)

// backendURL is the name the router knows the in-process pcserved by; the
// transport below never resolves it.
const backendURL = "http://pcserved"

// inproc is an http.RoundTripper that hands each request to a handler in
// the same process: the router's proxied requests reach pcserved's handler
// with no socket, no kernel and no connection pool in between.
type inproc struct{ h http.Handler }

func (t inproc) RoundTrip(req *http.Request) (*http.Response, error) {
	// The server's handlers rewrap Body; RoundTrip must not modify the
	// caller's request, so hand them a shallow copy.
	r := req.Clone(req.Context())
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// Stack is one booted serving stack: pcrouter's handler in front of
// pcserved's handler, the engine behind them and, for durable workloads,
// the WAL.
type Stack struct {
	Router *router.Router
	Dur    *wal.Manager
	// Front is the router's handler, where clients enter.
	Front http.Handler
	// Backend is pcserved's handler (the handler pass and /metrics).
	Backend http.Handler
}

// Boot times the parts of one boot.
type BootTimes struct {
	// Boot covers spec decode or WAL recovery, server.New, router.New and
	// the router's first health probe.
	Boot time.Duration
	// Warm covers the warm-up ops through the front door.
	Warm time.Duration
}

// Setup is Boot's total, the quantity setup_s reports.
func (b BootTimes) Setup() time.Duration { return b.Boot + b.Warm }

// Boot brings up a stack the way pcserved and pcrouter boot: a durable
// workload recovers walDir (a fresh copy of its template) with pcserved's
// defaults — fsync always, a 1 ms group-commit window, a checkpoint every
// 1024 mutations — and an in-memory one decodes its spec. The warm-up ops
// then run through the front door; a warm-up op that does not answer 200
// fails the boot.
func Boot(in *Inputs, walDir string) (*Stack, BootTimes, error) {
	var bt BootTimes
	start := time.Now()
	st := &Stack{}
	var store *core.Store
	if in.Durable() {
		dur, err := wal.Open(wal.Options{
			Dir: walDir, Mode: wal.SyncAlways, Window: WALWindow, CheckpointEvery: CheckpointEvery,
		})
		if err != nil {
			return nil, bt, fmt.Errorf("recovering %s: %w", walDir, err)
		}
		st.Dur, store = dur, dur.Store()
	} else {
		var err error
		if store, _, err = core.DecodeSet(in.Spec); err != nil {
			return nil, bt, err
		}
	}
	st.Backend = server.New(store, sat.New(store.Schema()), server.Config{Durability: st.Dur}).Handler()
	rt, err := router.New(router.Options{
		Primary: backendURL,
		Client:  &http.Client{Transport: inproc{st.Backend}},
		// One probe at start; no background probing during the run.
		CheckInterval: time.Hour,
	})
	if err != nil {
		st.Close()
		return nil, bt, err
	}
	st.Router, st.Front = rt, rt.Handler()
	if err := st.awaitHealthy(); err != nil {
		st.Close()
		return nil, bt, err
	}
	bt.Boot = time.Since(start)

	warm := NewResult(len(in.Warm))
	NewClient(st.Front).Run(in.Warm, 0, warm)
	bt.Warm = warm.Wall
	for i, code := range warm.Status {
		if code != http.StatusOK {
			st.Close()
			return nil, bt, fmt.Errorf("warm-up op %d (%s): HTTP %d: %s", i, in.Warm[i].Kind, code, warm.Body[i])
		}
	}
	return st, bt, nil
}

// awaitHealthy waits for the router's first health probe of the backend.
func (st *Stack) awaitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st.Router.Snapshot()[0].Healthy {
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
	return errors.New("router never saw the backend healthy")
}

// Close stops the router's health loop and closes the WAL.
func (st *Stack) Close() error {
	if st.Router != nil {
		st.Router.Close()
	}
	if st.Dur != nil {
		return st.Dur.Close()
	}
	return nil
}

// Result holds one pass over a stream, in preallocated storage.
type Result struct {
	Status []int
	Body   [][]byte
	// Start is each op's start since the pass began; Lat its latency. Both
	// are nil in an untimed result.
	Start, Lat []time.Duration
	// Done counts ops issued; Wall is the pass's timed wall time.
	Done int
	Wall time.Duration
}

// NewResult preallocates storage for n ops.
func NewResult(n int) *Result {
	return &Result{
		Status: make([]int, n), Body: make([][]byte, n),
		Start: make([]time.Duration, n), Lat: make([]time.Duration, n),
	}
}

// NewUntimedResult preallocates storage for n ops without per-op start and
// latency: a pass into it reads the clock only at its two ends.
func NewUntimedResult(n int) *Result {
	return &Result{Status: make([]int, n), Body: make([][]byte, n)}
}

// Client is the closed-loop client: it sends the next op only after the
// previous one answered. It tracks the two pieces of run-time state the
// stream refers to: the epoch the last mutation returned (for pinned reads)
// and the ids outstanding Adds returned (for Removes).
type Client struct {
	h     http.Handler
	epoch uint64
	adds  []uint64
	buf   []byte
}

// NewClient returns a client sending to h.
func NewClient(h http.Handler) *Client { return &Client{h: h, buf: make([]byte, 0, 4096)} }

// body renders the request body, splicing in run-time state.
func (c *Client) body(op *Op) []byte {
	switch {
	case op.Kind == Remove:
		c.buf = append(c.buf[:0], `{"id":`...)
		if len(c.adds) > 0 {
			c.buf = strconv.AppendUint(c.buf, c.adds[0], 10)
			c.adds = c.adds[1:]
		} else {
			c.buf = append(c.buf, '0')
		}
		return append(c.buf, '}')
	case op.Pin:
		c.buf = append(c.buf[:0], `{"epoch":`...)
		c.buf = strconv.AppendUint(c.buf, c.epoch, 10)
		c.buf = append(c.buf, ',')
		return append(c.buf, op.Body[1:]...)
	}
	return op.Body
}

// Do sends one op and returns the status and response body.
func (c *Client) Do(op *Op) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, op.Kind.Path(), bytes.NewReader(c.body(op)))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	body := rec.Body.Bytes()
	if rec.Code == http.StatusOK && !op.Kind.Read() {
		if e, ok := scanUint(body, `"epoch":`); ok {
			c.epoch = e
		}
		if op.Kind == Add {
			if id, ok := scanUint(body, `"ids":[`); ok {
				c.adds = append(c.adds, id)
			}
		}
	}
	return rec.Code, body
}

// Run replays ops in order until they run out or, with limit > 0, until
// limit has elapsed; only the requests are inside the clock. An untimed
// result always takes the whole stream.
func (c *Client) Run(ops []Op, limit time.Duration, res *Result) {
	start := time.Now()
	i := 0
	if res.Lat == nil {
		for ; i < len(ops); i++ {
			res.Status[i], res.Body[i] = c.Do(&ops[i])
		}
	}
	for i < len(ops) {
		t0 := time.Now()
		res.Status[i], res.Body[i] = c.Do(&ops[i])
		t1 := time.Now()
		res.Start[i], res.Lat[i] = t0.Sub(start), t1.Sub(t0)
		i++
		if limit > 0 && t1.Sub(start) >= limit {
			break
		}
	}
	res.Done = i
	res.Wall = time.Since(start)
}

// scanUint finds key in a JSON body and parses the unsigned integer after it.
func scanUint(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return v, err == nil
}
