package bench

import (
	"bytes"
	"fmt"
	"testing"
)

// shortOps is the length of the short runs the determinism tests replay.
const shortOps = 120

func streamDigest(ops []Op) string {
	var b bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&b, "%d|%t|%s\n", op.Kind, op.Pin, op.Body)
	}
	return b.String()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			a, err := Generate(name, 5, shortOps, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			b, err := Generate(name, 5, shortOps, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c, err := Generate(name, 6, shortOps, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Spec, b.Spec) || streamDigest(a.Warm) != streamDigest(b.Warm) {
				t.Fatal("same seed produced different boot inputs")
			}
			if streamDigest(a.Ops) != streamDigest(b.Ops) {
				t.Fatal("same seed produced different op streams")
			}
			if streamDigest(a.Ops) == streamDigest(c.Ops) {
				t.Fatal("different seeds produced the same op stream")
			}
			long, err := Generate(name, 5, 2*shortOps, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if streamDigest(long.Ops[:shortOps]) != streamDigest(a.Ops) {
				t.Fatal("a longer stream changed the prefix")
			}
		})
	}
}

// shortRun boots a fresh stack, replays the stream through the front door
// and returns the deterministic counters' deltas and the answers.
func shortRun(t *testing.T, in *Inputs, dir string) (map[string]float64, [][]byte) {
	t.Helper()
	b := &Booter{In: in, Dir: dir}
	st, _, err := b.Boot()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	before := Scrape(st.Backend)
	res := NewResult(len(in.Ops))
	NewClient(st.Front).Run(in.Ops, 0, res)
	after := Scrape(st.Backend)
	counters := map[string]float64{}
	for _, c := range Deterministic {
		if d, ok := Delta(before, after, c); ok {
			counters[c] = d
		}
	}
	for i, code := range res.Status {
		if code != 200 {
			t.Fatalf("op %d (%s): HTTP %d: %s", i, in.Ops[i].Kind, code, res.Body[i])
		}
	}
	return counters, res.Body
}

func TestSameSeedSameCounters(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			in, err := Generate(name, 5, shortOps, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ca, ba := shortRun(t, in, t.TempDir())
			cb, bb := shortRun(t, in, t.TempDir())
			if fmt.Sprint(ca) != fmt.Sprint(cb) {
				t.Fatalf("counters differ across same-seed runs:\n%v\n%v", ca, cb)
			}
			for _, c := range []string{"pcserved_cache_misses_total", "pcserved_sat_checks_total", "pcserved_tier_summary_evals_total"} {
				if _, ok := ca[c]; !ok {
					t.Errorf("counter %s absent", c)
				}
			}
			if in.Durable() && ca["wal_fsyncs_total"] == 0 {
				t.Error("durable workload made no fsyncs")
			}
			for i := range ba {
				if !bytes.Equal(ba[i], bb[i]) {
					t.Fatalf("op %d answered differently across same-seed runs:\n%s\n%s", i, ba[i], bb[i])
				}
			}
			ver, err := Verify(in, &Result{Status: statusOK(len(ba)), Body: ba, Done: len(ba)}, t.TempDir()+"/ref")
			if err != nil {
				t.Fatal(err)
			}
			if ver.Mismatches != 0 {
				t.Fatalf("%d mismatches against the reference: %v", ver.Mismatches, ver.Examples)
			}
		})
	}
}

func statusOK(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = 200
	}
	return s
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := Quartiles([]float64{3, 1, 2}); q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("got %v %v %v, want 1 2 3", q1, med, q3)
	}
}
