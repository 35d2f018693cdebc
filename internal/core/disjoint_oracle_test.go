package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
)

// oracleDisjointCells is the fast-path clip as first written: it copies each
// predicate box, intersects it with a copy of the query box and tests the
// intersection on the schema lattice. disjointCells must match it exactly.
func oracleDisjointCells(e *Engine, attrIdx int, where *predicate.P) []djCell {
	schema := e.snap.Schema()
	var whereBox domain.Box
	if where != nil {
		whereBox = where.Box()
	}
	out := make([]djCell, 0, e.snap.Len())
	for _, pc := range e.snap.pcs {
		region := pc.Pred.Box()
		if whereBox != nil {
			region = region.Intersect(whereBox)
		}
		if region.EmptyFor(schema) {
			continue
		}
		c := djCell{kLo: float64(pc.KLo), kHi: float64(pc.KHi)}
		if whereBox != nil && !whereBox.ContainsBox(pc.Pred.Box()) {
			c.kLo = 0
		}
		if attrIdx >= 0 {
			c.u = math.Min(pc.Values[attrIdx].Hi, region[attrIdx].Hi)
			c.l = math.Max(pc.Values[attrIdx].Lo, region[attrIdx].Lo)
			if c.l > c.u {
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// oracleSchema mixes Integral and Continuous attributes, two of them with
// infinite domains.
func oracleSchema() *domain.Schema {
	return domain.NewSchema(
		domain.Attr{Name: "day", Kind: domain.Integral, Domain: domain.NewInterval(0, 40)},
		domain.Attr{Name: "load", Kind: domain.Continuous, Domain: domain.NewInterval(0, 10)},
		domain.Attr{Name: "bin", Kind: domain.Integral, Domain: domain.Full},
		domain.Attr{Name: "price", Kind: domain.Continuous, Domain: domain.Full},
	)
}

// oracleLoadBands are the closed, pairwise disjoint load ranges of the
// random stores; (2.5, 3) and (6, 6.5) are covered by no constraint.
var oracleLoadBands = [][2]float64{{0, 2.5}, {3, 6}, {6.5, 10}}

// randomLatticeDisjointSet builds a store that is disjoint on the schema
// lattice but not over the reals: day strips cover integer runs widened by
// up to 0.9 on either side, so neighbouring strips overlap on an interval
// with no integer in it (the [0, 1.8] vs [1.2, 4] kind). Some integer days
// are left uncovered, and value ranges and bin ranges may be half-infinite.
func randomLatticeDisjointSet(rng *rand.Rand, s *domain.Schema) *Set {
	set := NewSet(s)
	for day := 0; day <= 40; {
		end := min(day+rng.Intn(4), 40)
		lo, hi := float64(day), float64(end)
		if rng.Intn(2) == 0 {
			lo -= 0.9 * rng.Float64()
		}
		if rng.Intn(2) == 0 {
			hi += 0.9 * rng.Float64()
		}
		for _, band := range oracleLoadBands {
			if rng.Intn(5) == 0 {
				continue
			}
			b := predicate.NewBuilder(s).Range("day", lo, hi).Range("load", band[0], band[1])
			switch rng.Intn(3) {
			case 0:
				b.Ge("bin", float64(rng.Intn(5)))
			case 1:
				b.Le("bin", float64(rng.Intn(5)))
			}
			p := 200 * rng.Float64()
			price := domain.NewInterval(p, p+100*rng.Float64())
			switch rng.Intn(4) {
			case 0:
				price.Hi = math.Inf(1)
			case 1:
				price.Lo = math.Inf(-1)
			}
			klo := rng.Intn(4)
			khi := klo + rng.Intn(6)
			if rng.Intn(6) == 0 {
				klo, khi = 0, 0
			}
			set.MustAdd(MustPC(b.Build(), map[string]domain.Interval{
				"price": price,
				"load":  domain.NewInterval(band[0]+rng.Float64(), band[1]),
			}, klo, khi))
		}
		day = end + 1 + rng.Intn(2)
	}
	return set
}

// randomOracleRegion draws a query region: Integral ranges with fractional
// endpoints (some hold no integer), half-infinite ranges, and load ranges
// that may fall into a gap between bands.
func randomOracleRegion(rng *rand.Rand, s *domain.Schema) *predicate.P {
	b := predicate.NewBuilder(s)
	if rng.Intn(4) != 0 {
		lo := float64(rng.Intn(42)) - 0.5 + rng.Float64()
		hi := lo + 6*rng.Float64()
		switch rng.Intn(4) {
		case 0:
			b.Ge("day", lo)
		case 1:
			b.Le("day", hi)
		default:
			b.Range("day", lo, hi)
		}
	}
	if rng.Intn(2) == 0 {
		lo := 10 * rng.Float64()
		b.Range("load", lo, lo+3*rng.Float64())
	}
	if rng.Intn(3) == 0 {
		k := float64(rng.Intn(7)) - 1
		b.Range("bin", k+0.5*rng.Float64(), k+2*rng.Float64())
	}
	if rng.Intn(3) == 0 {
		b.Ge("price", 300*rng.Float64())
	}
	return b.Build()
}

// TestDisjointCellsMatchOracle requires the allocation-free fast-path clip
// to produce exactly the oracle's cells, and every aggregate the engine
// answers from them to be == the oracle-fed aggregate, on lattice-disjoint
// stores with a nil region, integer-free overlaps, infinite endpoints and
// regions that miss every constraint.
func TestDisjointCellsMatchOracle(t *testing.T) {
	s := oracleSchema()
	rng := rand.New(rand.NewSource(13))
	var realsOnly, missAll, regions int
	for trial := 0; trial < 40; trial++ {
		set := randomLatticeDisjointSet(rng, s)
		e := NewEngine(set, nil, Options{})
		if !e.useFast() {
			t.Fatalf("trial %d: constructed set does not take the fast path", trial)
		}
		wheres := []*predicate.P{
			nil,
			predicate.NewBuilder(s).Range("load", 2.6, 2.9).Build(),
			predicate.NewBuilder(s).Range("day", 3.2, 3.8).Build(),
		}
		for k := 0; k < 12; k++ {
			wheres = append(wheres, randomOracleRegion(rng, s))
		}
		for _, where := range wheres {
			regions++
			want := oracleDisjointCells(e, -1, where)
			if got := e.disjointCells(-1, where); !slices.Equal(got, want) {
				t.Fatalf("trial %d where %v: cells %v, oracle %v", trial, where, got, want)
			}
			if len(want) == 0 {
				missAll++
			}
			if where != nil {
				for _, pc := range set.Snapshot().pcs {
					if r := pc.Pred.Box().Intersect(where.Box()); !r.Empty() && r.EmptyFor(s) {
						realsOnly++
					}
				}
			}
			check := func(agg string, got Range, err error, want Range) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("trial %d where %v %s: %+v, oracle %+v", trial, where, agg, got, want)
				}
			}
			got, err := e.Count(where)
			check("COUNT", got, err, fastCount(want))
			for _, attr := range []string{"price", "load", "day"} {
				ai := s.MustIndex(attr)
				want := oracleDisjointCells(e, ai, where)
				if got := e.disjointCells(ai, where); !slices.Equal(got, want) {
					t.Fatalf("trial %d where %v attr %s: cells %v, oracle %v", trial, where, attr, got, want)
				}
				got, err := e.Sum(attr, where)
				check("SUM("+attr+")", got, err, fastSum(want))
				got, err = e.Avg(attr, where)
				check("AVG("+attr+")", got, err, fastAvg(want))
				got, err = e.Min(attr, where)
				check("MIN("+attr+")", got, err, fastMinMax(want, false))
				got, err = e.Max(attr, where)
				check("MAX("+attr+")", got, err, fastMinMax(want, true))
			}
		}
	}
	// The cases the clip must get right have to occur, or the comparison
	// proves little.
	if realsOnly == 0 || missAll == 0 {
		t.Errorf("over %d regions: %d constraint/region pairs overlap over the reals only, %d regions miss every constraint; want both > 0",
			regions, realsOnly, missAll)
	}
}
