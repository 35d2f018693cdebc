package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"pcbound/internal/core"
)

// TestNumRoundTrip checks the non-finite-aware float encoding: finite values
// must round-trip bit-exactly, and ±Inf/NaN must survive as their string
// forms (plain JSON numbers cannot carry them).
func TestNumRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		v    float64
		want string
	}{
		{"zero", 0, "0"},
		{"negative zero", math.Copysign(0, -1), "-0"},
		{"integer", 42, "42"},
		{"fraction", 129.99, "129.99"},
		{"tiny", 5e-324, "5e-324"},
		{"huge", 1.7976931348623157e+308, "1.7976931348623157e+308"},
		{"pos inf", math.Inf(1), `"+Inf"`},
		{"neg inf", math.Inf(-1), `"-Inf"`},
		{"nan", math.NaN(), `"NaN"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(Num(tc.v))
			if err != nil {
				t.Fatal(err)
			}
			if string(raw) != tc.want {
				t.Fatalf("encoded %q, want %q", raw, tc.want)
			}
			var back Num
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(tc.v) {
				if !math.IsNaN(float64(back)) {
					t.Fatalf("NaN decoded to %v", back)
				}
				return
			}
			if math.Float64bits(float64(back)) != math.Float64bits(tc.v) {
				t.Fatalf("round trip %v -> %v (bits differ)", tc.v, float64(back))
			}
		})
	}
}

// TestNumDecodeForms checks accepted and rejected textual forms.
func TestNumDecodeForms(t *testing.T) {
	var n Num
	if err := json.Unmarshal([]byte(`"Inf"`), &n); err != nil || !math.IsInf(float64(n), 1) {
		t.Fatalf(`"Inf" decoded to %v, %v`, n, nil)
	}
	for _, bad := range []string{`"infinity"`, `"1.5"`, `"nan "`, `{}`, `[1]`, `true`} {
		if err := json.Unmarshal([]byte(bad), &n); err == nil {
			t.Errorf("decoding %s succeeded, want error", bad)
		}
	}
}

// TestRangeJSONRoundTrip table-drives the range wire type over finite,
// infinite, inverted (empty), and flag-carrying ranges: the reconstructed
// core.Range must be bit-identical.
func TestRangeJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		r    core.Range
	}{
		{"zero", core.Range{}},
		{"finite exact", core.Range{Lo: -12.5, Hi: 99.875, LoExact: true, HiExact: true, Cells: 7, SATChecks: 123}},
		{"loose with flags", core.Range{Lo: 0.1, Hi: 0.2, MaybeEmpty: true, Reconciled: true}},
		{"unbounded above", core.Range{Lo: 3, Hi: math.Inf(1), LoExact: true}},
		{"unbounded below", core.Range{Lo: math.Inf(-1), Hi: -7}},
		{"empty inverted", core.Range{Lo: math.Inf(1), Hi: math.Inf(-1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(RangeToJSON(tc.r))
			if err != nil {
				t.Fatal(err)
			}
			var rj RangeJSON
			if err := json.Unmarshal(raw, &rj); err != nil {
				t.Fatal(err)
			}
			got := rj.Range()
			if math.Float64bits(got.Lo) != math.Float64bits(tc.r.Lo) ||
				math.Float64bits(got.Hi) != math.Float64bits(tc.r.Hi) {
				t.Fatalf("endpoints %v, want %v", got, tc.r)
			}
			got.Lo, got.Hi = tc.r.Lo, tc.r.Hi // compare the rest structurally
			if got != tc.r {
				t.Fatalf("flags %+v, want %+v", got, tc.r)
			}
		})
	}
}

// TestRequestWireRoundTrip checks the request envelopes: the optional epoch
// pointer must survive (and stay absent when unset), and query/constraint
// payloads must ride the shared core wire types unchanged.
func TestRequestWireRoundTrip(t *testing.T) {
	epoch := uint64(42)
	breq := BoundRequest{
		Query: core.QueryJSON{Agg: "SUM", Attr: "price", Where: map[string][2]float64{"utc": {3, 9}}},
		Epoch: &epoch,
	}
	raw, _ := json.Marshal(breq)
	var back BoundRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Epoch == nil || *back.Epoch != epoch || back.Query.Agg != "SUM" || back.Query.Where["utc"] != [2]float64{3, 9} {
		t.Fatalf("bound request round trip: %+v", back)
	}

	raw, _ = json.Marshal(BoundRequest{Query: core.QueryJSON{Agg: "COUNT"}})
	var unpinned BoundRequest
	if err := json.Unmarshal(raw, &unpinned); err != nil {
		t.Fatal(err)
	}
	if unpinned.Epoch != nil {
		t.Fatalf("absent epoch decoded as %d", *unpinned.Epoch)
	}

	areq := AddRequest{Constraints: []core.PCJSON{{
		Name:      "late",
		Predicate: map[string][2]float64{"utc": {21, 23}},
		Values:    map[string][2]float64{"price": {0, 80}},
		KLo:       1, KHi: 9,
	}}}
	raw, _ = json.Marshal(areq)
	var aback AddRequest
	if err := json.Unmarshal(raw, &aback); err != nil {
		t.Fatal(err)
	}
	if len(aback.Constraints) != 1 {
		t.Fatalf("add request round trip: %+v", aback)
	}
	c, d := areq.Constraints[0], aback.Constraints[0]
	if c.Name != d.Name || c.KLo != d.KLo || c.KHi != d.KHi ||
		d.Predicate["utc"] != c.Predicate["utc"] || d.Values["price"] != c.Values["price"] {
		t.Fatalf("add request round trip: %+v", aback)
	}

	rreq := ReplaceRequest{ID: 7, Constraint: areq.Constraints[0]}
	raw, _ = json.Marshal(rreq)
	var rback ReplaceRequest
	if err := json.Unmarshal(raw, &rback); err != nil {
		t.Fatal(err)
	}
	if rback.ID != 7 || rback.Constraint.KHi != 9 {
		t.Fatalf("replace request round trip: %+v", rback)
	}
}

// TestAppendJSONMatchesEncodingJSON pins the read answers' hand-written
// encoding to encoding/json's bytes (plus the newline json.Encoder ends a
// value with) over random ranges: non-finite, signed-zero, subnormal and
// exponent-threshold endpoints, every omitempty flag, nil and empty
// slices, and precision strings that need escaping.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, 1e-7, 1e-6, 9.999999999999999e-7, 1e20, 1e21, 123456789e13,
		-1e-7, -1e21, 129.99, 1.7976931348623157e+308, 0.1, 3,
	}
	num := func() Num {
		switch rng.Intn(3) {
		case 0:
			return Num(specials[rng.Intn(len(specials))])
		case 1:
			return Num(math.Float64frombits(rng.Uint64()))
		}
		return Num((rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30)))
	}
	precisions := []string{"exact", "summary", "", "a<b", "b>a", "x&y", "quote\"back\\slash", "tab\tnl\n", "ünï", "\x7f", string([]byte{0xff, 'x'}), " "}
	rangeOf := func() RangeJSON {
		rj := RangeJSON{Lo: num(), Hi: num(), LoExact: rng.Intn(2) == 0, HiExact: rng.Intn(2) == 0,
			MaybeEmpty: rng.Intn(2) == 0, Reconciled: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			rj.Cells = rng.Intn(1<<20) - 1<<19
		}
		if rng.Intn(2) == 0 {
			rj.SATChecks = rng.Int63() - 1<<62
		}
		return rj
	}
	check := func(v appender) {
		t.Helper()
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if got := append(v.appendJSON(nil), '\n'); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendJSON wrote\n%s\nencoding/json wrote\n%s", got, want.Bytes())
		}
	}
	for trial := 0; trial < 2000; trial++ {
		check(BoundResponse{Range: rangeOf(), Epoch: rng.Uint64(), Precision: precisions[rng.Intn(len(precisions))]})
		var br BatchResponse
		switch rng.Intn(4) {
		case 0: // nil slices encode as null
		case 1:
			br.Ranges, br.Precisions = []RangeJSON{}, []string{}
		default:
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				br.Ranges = append(br.Ranges, rangeOf())
				br.Precisions = append(br.Precisions, precisions[rng.Intn(len(precisions))])
			}
		}
		br.Epoch = uint64(rng.Intn(1000))
		check(br)
	}
}
