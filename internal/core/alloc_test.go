package core_test

import (
	"testing"

	"pcbound/internal/core"
	"pcbound/internal/data"
	"pcbound/internal/pcgen"
	"pcbound/internal/predicate"
)

// cornerRegion returns a tiny region around a grid corner where four
// buckets of a two-attribute Corr-PC partition meet, so it touches exactly
// those four whatever the partition's size.
func cornerRegion(t *testing.T, snap *core.Snapshot) *predicate.P {
	t.Helper()
	s := snap.Schema()
	lat, lon := s.Attr(s.MustIndex("latitude")).Domain, s.Attr(s.MustIndex("longitude")).Domain
	preds := snap.Predicates()
	for _, p := range preds[len(preds)/2:] {
		la, lo := p.Interval("latitude"), p.Interval("longitude")
		if la.Hi < lat.Hi && lo.Hi < lon.Hi {
			const eps = 1e-9
			return predicate.NewBuilder(s).
				Range("latitude", la.Hi-eps, la.Hi+eps).
				Range("longitude", lo.Hi-eps, lo.Hi+eps).Build()
		}
	}
	t.Fatal("no interior grid corner")
	return nil
}

// TestFastPathAllocsFlatInConstraints pins the allocation-free overlap
// tests on Corr-PC partitions of the Airbnb twin: a fast-path COUNT or SUM
// over a region touching four buckets allocates no more at 2025 buckets
// than at 200, and the disjointness check of a fresh snapshot allocates
// nothing per constraint pair.
func TestFastPathAllocsFlatInConstraints(t *testing.T) {
	twin := data.Airbnb(20000, 1)
	_, missing := data.RemoveRandomFraction(twin, 0.3, 2)
	type allocs struct {
		n                    int
		count, sum, disjoint float64
	}
	var got []allocs
	for _, n := range []int{200, 2025} {
		set, err := pcgen.CorrPC(missing, []string{"latitude", "longitude"}, n)
		if err != nil {
			t.Fatal(err)
		}
		snap := set.Snapshot()
		if !snap.Disjoint() {
			t.Fatalf("%d-bucket Corr-PC partition is not disjoint", n)
		}
		where := cornerRegion(t, snap)
		eng := core.NewEngineAt(snap, nil, core.Options{})
		for _, agg := range []core.Agg{core.Count, core.Sum} {
			r, err := eng.Bound(core.Query{Agg: agg, Attr: "price", Where: where})
			if err != nil {
				t.Fatal(err)
			}
			if r.Cells != 4 {
				t.Fatalf("%d buckets, %v: region touches %d buckets, want 4", n, agg, r.Cells)
			}
		}
		a := allocs{n: n}
		a.count = testing.AllocsPerRun(50, func() {
			if _, err := eng.Count(where); err != nil {
				t.Fatal(err)
			}
		})
		a.sum = testing.AllocsPerRun(50, func() {
			if _, err := eng.Sum("price", where); err != nil {
				t.Fatal(err)
			}
		})
		a.disjoint = testing.AllocsPerRun(2, func() {
			if !core.FreshSnapshot(snap).Disjoint() {
				t.Fatal("fresh snapshot is not disjoint")
			}
		})
		t.Logf("%d buckets: %.0f allocs per COUNT, %.0f per SUM, %.0f per fresh Disjoint", n, a.count, a.sum, a.disjoint)
		got = append(got, a)
	}
	small, large := got[0], got[1]
	if large.count > small.count || large.sum > small.sum {
		t.Errorf("fast-path allocations grow with the constraint count: COUNT %.0f → %.0f, SUM %.0f → %.0f allocs (%d → %d buckets)",
			small.count, large.count, small.sum, large.sum, small.n, large.n)
	}
	for _, a := range got {
		// The fresh snapshot itself is the one allocation allowed.
		if a.disjoint > 1 {
			t.Errorf("%d buckets: Disjoint on a fresh snapshot made %.0f allocations, want at most 1 (the snapshot)", a.n, a.disjoint)
		}
	}
}
