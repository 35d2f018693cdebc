package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"pcbound/internal/core"
	"pcbound/internal/sat"
	"pcbound/internal/server"
	"pcbound/internal/wal"
)

// refChunk caps the queries in one reference batch.
const refChunk = 512

// Verification checks a run's answers after the clock stops.
type Verification struct {
	// Failed marks each timed op that answered non-2xx or disagreed with
	// the reference.
	Failed []bool
	// Mismatches counts disagreeing ranges, epochs or ids.
	Mismatches int
	// Examples holds the first few disagreements, for the report.
	Examples []string
}

// FailedOps counts failed ops.
func (v *Verification) FailedOps() int {
	n := 0
	for _, f := range v.Failed {
		if f {
			n++
		}
	}
	return n
}

func (v *Verification) fail(i int, format string, args ...any) {
	v.Failed[i] = true
	v.Mismatches++
	if len(v.Examples) < 5 {
		v.Examples = append(v.Examples, fmt.Sprintf("op %d: ", i)+fmt.Sprintf(format, args...))
	}
}

// pendingRead is one measured answer awaiting its reference range.
type pendingRead struct {
	op    int
	query core.QueryJSON
	got   server.RangeJSON
	prec  string
	epoch uint64
}

// Verify checks the first res.Done ops of in.Ops against a reference that
// shares no cache state with the measured server: a fresh pcserved booted
// from the same spec, or from a fresh copy of the same WAL template
// (refDir), that replays the warm-up and the stream's mutations in order
// and answers every read exactly. Exact answers must be bit-identical to
// the reference, summary-tagged ones must contain it, every read must
// report the epoch the reference is at, and every mutation must return the
// reference's epoch (and ids).
func Verify(in *Inputs, res *Result, refDir string) (*Verification, error) {
	v := &Verification{Failed: make([]bool, res.Done)}
	var store *core.Store
	if in.Durable() {
		if err := CopyDir(in.Template, refDir); err != nil {
			return nil, err
		}
		// The reference needs the same epochs, not the same durability.
		dur, err := wal.Open(wal.Options{Dir: refDir, Mode: wal.SyncNone})
		if err != nil {
			return nil, fmt.Errorf("reference recovery: %w", err)
		}
		// The reference's log is scratch: failing to close it cannot change
		// the verdict.
		defer dur.Close()
		store = dur.Store()
	} else {
		var err error
		if store, _, err = core.DecodeSet(in.Spec); err != nil {
			return nil, err
		}
	}
	ref := server.New(store, sat.New(store.Schema()), server.Config{})
	rc := NewClient(ref.Handler())
	for i := range in.Warm {
		if !in.Warm[i].Kind.Read() {
			if code, body := rc.Do(&in.Warm[i]); code != http.StatusOK {
				return nil, fmt.Errorf("reference warm-up op %d: HTTP %d: %s", i, code, body)
			}
		}
	}

	var pending []pendingRead
	flush := func() error {
		err := v.flush(rc.h, pending)
		pending = pending[:0]
		return err
	}
	for i := 0; i < res.Done; i++ {
		op := &in.Ops[i]
		code, body := res.Status[i], res.Body[i]
		if code != http.StatusOK {
			v.fail(i, "%s answered HTTP %d: %s", op.Kind, code, body)
		}
		if !op.Kind.Read() {
			if err := flush(); err != nil {
				return nil, err
			}
			rcode, rbody := rc.Do(op)
			if rcode != http.StatusOK {
				return nil, fmt.Errorf("reference %s for op %d: HTTP %d: %s", op.Kind, i, rcode, rbody)
			}
			if code == http.StatusOK {
				v.checkMutation(i, op, body, rbody)
			}
			continue
		}
		if code != http.StatusOK {
			continue
		}
		ans, err := ParseRead(op.Kind, body)
		if err != nil {
			v.fail(i, "decoding answer: %v", err)
			continue
		}
		req, err := op.Decode()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		if len(ans.Ranges) != len(req.Queries) || len(ans.Precs) != len(req.Queries) {
			v.fail(i, "%d ranges for %d queries", len(ans.Ranges), len(req.Queries))
			continue
		}
		if op.Pin && ans.Epoch != rc.epoch {
			v.fail(i, "read pinned to epoch %d answered at epoch %d", rc.epoch, ans.Epoch)
		}
		for j, q := range req.Queries {
			pending = append(pending, pendingRead{op: i, query: q, got: ans.Ranges[j], prec: ans.Precs[j], epoch: ans.Epoch})
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *Verification) checkMutation(i int, op *Op, got, want []byte) {
	var g, w server.AddResponse // remove/replace answers are its epoch-only subset
	if err := json.Unmarshal(got, &g); err != nil {
		v.fail(i, "decoding %s answer: %v", op.Kind, err)
		return
	}
	if err := json.Unmarshal(want, &w); err != nil {
		v.fail(i, "decoding reference %s answer: %v", op.Kind, err)
		return
	}
	if g.Epoch != w.Epoch {
		v.fail(i, "%s returned epoch %d, reference %d", op.Kind, g.Epoch, w.Epoch)
	}
	if fmt.Sprint(g.IDs) != fmt.Sprint(w.IDs) {
		v.fail(i, "%s returned ids %v, reference %v", op.Kind, g.IDs, w.IDs)
	}
}

// flush answers the pending reads on the reference (each distinct query
// once, exactly) and compares.
func (v *Verification) flush(h http.Handler, pending []pendingRead) error {
	if len(pending) == 0 {
		return nil
	}
	index := map[string]int{}
	var distinct []core.QueryJSON
	for _, p := range pending {
		k := string(mustJSON(p.query))
		if _, ok := index[k]; !ok {
			index[k] = len(distinct)
			distinct = append(distinct, p.query)
		}
	}
	want := make([]server.RangeJSON, 0, len(distinct))
	var epoch uint64
	c := NewClient(h)
	for lo := 0; lo < len(distinct); lo += refChunk {
		hi := min(lo+refChunk, len(distinct))
		op := Op{Kind: Batch, Body: mustJSON(server.BatchRequest{Queries: distinct[lo:hi]})}
		code, body := c.Do(&op)
		if code != http.StatusOK {
			return fmt.Errorf("reference batch: HTTP %d: %s", code, body)
		}
		var br server.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			return fmt.Errorf("reference batch: %w", err)
		}
		want = append(want, br.Ranges...)
		epoch = br.Epoch
	}
	for _, p := range pending {
		w := want[index[string(mustJSON(p.query))]]
		if p.epoch != epoch {
			v.fail(p.op, "answered at epoch %d, reference at %d", p.epoch, epoch)
		}
		switch p.prec {
		case "exact":
			if !Identical(p.got, w) {
				v.fail(p.op, "%s: exact %+v, reference %+v", p.query, p.got, w)
			}
		case "summary":
			if !contains(p.got, w) {
				v.fail(p.op, "%s: summary %+v does not contain exact %+v", p.query, p.got, w)
			}
		default:
			v.fail(p.op, "%s: unknown precision %q", p.query, p.prec)
		}
	}
	return nil
}

// ReadAnswer is a read's answer in wire form: one range and precision tag
// per query, and the epoch that answered.
type ReadAnswer struct {
	Ranges []server.RangeJSON
	Precs  []string
	Epoch  uint64
}

// ParseRead decodes the 200 answer to a read op.
func ParseRead(kind Kind, body []byte) (ReadAnswer, error) {
	if kind == Bound {
		var r server.BoundResponse
		err := json.Unmarshal(body, &r)
		return ReadAnswer{Ranges: []server.RangeJSON{r.Range}, Precs: []string{r.Precision}, Epoch: r.Epoch}, err
	}
	var r server.BatchResponse
	err := json.Unmarshal(body, &r)
	return ReadAnswer{Ranges: r.Ranges, Precs: r.Precisions, Epoch: r.Epoch}, err
}

// Identical compares two ranges bit for bit.
func Identical(a, b server.RangeJSON) bool {
	return math.Float64bits(float64(a.Lo)) == math.Float64bits(float64(b.Lo)) &&
		math.Float64bits(float64(a.Hi)) == math.Float64bits(float64(b.Hi)) &&
		a.LoExact == b.LoExact && a.HiExact == b.HiExact &&
		a.MaybeEmpty == b.MaybeEmpty && a.Reconciled == b.Reconciled &&
		a.Cells == b.Cells && a.SATChecks == b.SATChecks
}

// contains reports whether the summary interval s contains the exact range
// e. An empty exact range (Lo > Hi) is contained in anything.
func contains(s, e server.RangeJSON) bool {
	if math.IsNaN(float64(s.Lo)) || math.IsNaN(float64(s.Hi)) {
		return false
	}
	if e.Lo > e.Hi {
		return true
	}
	return s.Lo <= e.Lo && s.Hi >= e.Hi
}
