package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
	"pcbound/internal/sched"
)

// tieredWorkload is batchWorkload plus whole-domain queries (the sketch
// path) for every aggregate.
func tieredWorkload(s *domain.Schema) []Query {
	queries := batchWorkload(s)
	for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
		queries = append(queries, Query{Agg: agg, Attr: "price"})
	}
	return queries
}

// checkSummaryContains asserts the summary range is a sound outer bound of
// the exact range: endpoints contain it, and a summary non-emptiness claim
// implies an exact one.
func checkSummaryContains(t *testing.T, label string, q Query, sum, exact Range) {
	t.Helper()
	if sum.Lo > exact.Lo || sum.Hi < exact.Hi {
		t.Fatalf("%s %s: summary [%v, %v] does not contain exact [%v, %v]",
			label, q, sum.Lo, sum.Hi, exact.Lo, exact.Hi)
	}
	if !sum.MaybeEmpty && exact.MaybeEmpty {
		t.Fatalf("%s %s: summary claims non-empty but exact range %+v may be empty", label, q, exact)
	}
}

// TestSummarySoundnessDifferential is the randomized soundness gauntlet for
// the summary tier, mirroring TestCellCacheMutateReboundDifferential: a
// store mutates through random Add/Remove/Replace epochs while the attached
// overlay keeps its summaries in lockstep; after every epoch, for every
// aggregate over a workload of regions (plus whole-domain sketch queries),
// the summary interval must contain the exact interval — against the
// general MILP path and against the engine's default path (which takes the
// disjoint fast path when it can).
func TestSummarySoundnessDifferential(t *testing.T) {
	s := salesSchema()
	type scenario struct {
		name string
		// newPC returns the next constraint; slot is a stable per-id slot
		// index used by the disjoint scenario to keep predicates disjoint
		// across mutations.
		newPC func(rng *rand.Rand, slot int) PC
	}
	scenarios := []scenario{
		{
			name: "overlapping",
			newPC: func(rng *rand.Rand, _ int) PC {
				lo := rng.Float64() * 20
				w := 4 + rng.Float64()*12
				vlo := rng.Float64() * 50
				return MustPC(
					predicate.NewBuilder(s).Range("utc", lo, lo+w).Build(),
					map[string]domain.Interval{"price": domain.NewInterval(vlo, vlo+10+rng.Float64()*40)},
					rng.Intn(2), 2+rng.Intn(6),
				)
			},
		},
		{
			// Disjoint slots utc [4k, 4k+2]: lattice gaps at 4k+3 keep every
			// pair disjoint, so the overlay's disjointness certificate (and
			// with it summary COUNT lower bounds and non-emptiness claims)
			// stays live across mutations.
			name: "disjoint",
			newPC: func(rng *rand.Rand, slot int) PC {
				lo := float64(4 * slot)
				vlo := rng.Float64() * 50
				return MustPC(
					predicate.NewBuilder(s).Range("utc", lo, lo+2).Build(),
					map[string]domain.Interval{"price": domain.NewInterval(vlo, vlo+10+rng.Float64()*40)},
					rng.Intn(2), 2+rng.Intn(6),
				)
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			store := NewStore(s)
			// slots tracks which disjoint slot each live id occupies; the
			// overlapping scenario ignores it.
			slots := map[PCID]int{}
			freeSlot := func() int {
				used := map[int]bool{}
				for _, sl := range slots {
					used[sl] = true
				}
				for k := 0; ; k++ {
					if !used[k] {
						return k
					}
				}
			}
			var pcs []PC
			for i := 0; i < 6; i++ {
				pcs = append(pcs, sc.newPC(rng, i))
			}
			ids, err := store.AddPCs(pcs...)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				slots[id] = i
			}

			ov := AttachSummary(store)
			defer ov.Detach()
			queries := tieredWorkload(s)
			sch := sched.New(2)
			defer sch.Close()
			// warm: general path with scheduler + caches across Rebind;
			// defaultPath: whatever the engine picks (fast path for the
			// disjoint scenario). Both must be contained.
			warm := NewEngine(store, nil, Options{DisableFastPath: true, Scheduler: sch, Summary: ov})

			for epoch := 0; epoch < 12; epoch++ {
				switch op := rng.Intn(3); {
				case op == 0 || len(ids) < 3:
					sl := freeSlot()
					got, err := store.AddPCs(sc.newPC(rng, sl))
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, got...)
					slots[got[0]] = sl
				case op == 1:
					k := rng.Intn(len(ids))
					if err := store.Remove(ids[k]); err != nil {
						t.Fatal(err)
					}
					delete(slots, ids[k])
					ids = append(ids[:k], ids[k+1:]...)
				default:
					k := rng.Intn(len(ids))
					if err := store.Replace(ids[k], sc.newPC(rng, slots[ids[k]])); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := ov.Stats().Epoch, store.Epoch(); got != want {
					t.Fatalf("epoch %d: overlay at epoch %d, store at %d", epoch, got, want)
				}
				if sc.name == "disjoint" && !ov.Stats().Disjoint {
					t.Fatalf("epoch %d: disjoint scenario lost the disjointness certificate: %+v", epoch, ov.Stats())
				}
				warm = warm.Rebind()
				defaultPath := NewEngine(store, nil, Options{Summary: ov})
				for _, q := range queries {
					sum, ok := warm.BoundSummary(q)
					if !ok {
						t.Fatalf("epoch %d %s: no summary answer for a current-epoch engine", epoch, q)
					}
					general, err := warm.Bound(q)
					if err != nil {
						t.Fatal(err)
					}
					checkSummaryContains(t, fmt.Sprintf("epoch %d general", epoch), q, sum, general)
					def, err := defaultPath.Bound(q)
					if err != nil {
						t.Fatal(err)
					}
					checkSummaryContains(t, fmt.Sprintf("epoch %d default", epoch), q, sum, def)
				}
			}
			st := ov.Stats()
			if st.Mutations != 12 {
				t.Fatalf("overlay saw %d mutations, want 12", st.Mutations)
			}
			if st.Evals == 0 || st.SketchEvals == 0 {
				t.Fatalf("summary eval counters never moved: %+v", st)
			}
		})
	}
}

// TestTieredExactBitIdentity: attaching an overlay must not perturb the
// exact path by a single bit, and TierExact must bypass the summary tier.
func TestTieredExactBitIdentity(t *testing.T) {
	set := overlappingSet(t)
	queries := tieredWorkload(set.Schema())
	plain := NewEngine(set, nil, Options{})
	ov := AttachSummary(set)
	defer ov.Detach()
	tiered := NewEngine(set, nil, Options{Summary: ov})
	for i, q := range queries {
		want, err := plain.Bound(q)
		if err != nil {
			t.Fatal(err)
		}
		got, prec, err := tiered.BoundTiered(q, TierSpec{Mode: TierExact})
		if err != nil {
			t.Fatal(err)
		}
		if prec != PrecisionExact {
			t.Fatalf("query %d: TierExact produced precision %v", i, prec)
		}
		if got != want {
			t.Fatalf("query %d (%s): overlay-carrying exact range %+v != plain %+v", i, q, got, want)
		}
		// A zero width budget escalates every non-degenerate query too.
		got, _, err = tiered.BoundTiered(q, TierSpec{Mode: TierAuto, MaxWidth: 0})
		if err != nil {
			t.Fatal(err)
		}
		if s, ok := tiered.BoundSummary(q); ok && s.Lo <= s.Hi && s.Hi-s.Lo > 0 && got != want {
			t.Fatalf("query %d (%s): zero-budget tiered range %+v != exact %+v", i, q, got, want)
		}
	}
}

// TestTieredForceSummary: TierForceSummary answers from the summary tier
// whenever one exists, and the answer contains the exact range.
func TestTieredForceSummary(t *testing.T) {
	set := overlappingSet(t)
	ov := AttachSummary(set)
	defer ov.Detach()
	eng := NewEngine(set, nil, Options{Summary: ov})
	for _, q := range tieredWorkload(set.Schema()) {
		got, prec, err := eng.BoundTiered(q, TierSpec{Mode: TierForceSummary})
		if err != nil {
			t.Fatal(err)
		}
		if prec != PrecisionSummary {
			t.Fatalf("%s: forced summary still escalated", q)
		}
		exact, err := eng.Bound(q)
		if err != nil {
			t.Fatal(err)
		}
		checkSummaryContains(t, "forced", q, got, exact)
	}
}

// TestTieredEpochMismatchEscalates: an engine pinned behind the store
// frontier gets no summary answer (the overlay only describes the current
// epoch), so tiered bounds silently escalate to the exact path.
func TestTieredEpochMismatchEscalates(t *testing.T) {
	set := overlappingSet(t)
	ov := AttachSummary(set)
	defer ov.Detach()
	pinned := NewEngine(set, nil, Options{Summary: ov})
	q := Query{Agg: Sum, Attr: "price"}
	if _, ok := pinned.BoundSummary(q); !ok {
		t.Fatal("current-epoch engine has no summary answer")
	}
	set.MustAdd(MustPC(
		predicate.NewBuilder(set.Schema()).Range("utc", 1, 2).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(1, 2)}, 0, 3))
	if _, ok := pinned.BoundSummary(q); ok {
		t.Fatal("pinned engine behind the frontier still got a summary answer")
	}
	r, prec, err := pinned.BoundTiered(q, TierSpec{Mode: TierForceSummary})
	if err != nil {
		t.Fatal(err)
	}
	if prec != PrecisionExact {
		t.Fatalf("pinned tiered bound did not escalate: %v %+v", prec, r)
	}
	// The rebound lineage is current again.
	if _, ok := pinned.Rebind().BoundSummary(q); !ok {
		t.Fatal("rebound engine has no summary answer")
	}
}

// TestTieredDetachStopsTracking: after Detach the overlay stays frozen, so
// the next mutation strands it and summary answers disappear instead of
// going stale.
func TestTieredDetachStopsTracking(t *testing.T) {
	set := overlappingSet(t)
	ov := AttachSummary(set)
	eng := NewEngine(set, nil, Options{Summary: ov})
	q := Query{Agg: Count}
	if _, ok := eng.BoundSummary(q); !ok {
		t.Fatal("no summary answer before detach")
	}
	ov.Detach()
	ov.Detach() // idempotent
	set.MustAdd(MustPC(
		predicate.NewBuilder(set.Schema()).Range("utc", 1, 2).Build(),
		map[string]domain.Interval{"price": domain.NewInterval(1, 2)}, 0, 3))
	if _, ok := eng.Rebind().BoundSummary(q); ok {
		t.Fatal("detached overlay still answered for a post-detach epoch")
	}
}

// TestBoundBatchTiered: the batch form preserves input order across the
// summary/exact split, tags precisions correctly, and its exact sub-batch
// is bit-identical to a plain batch.
func TestBoundBatchTiered(t *testing.T) {
	set := overlappingSet(t)
	queries := tieredWorkload(set.Schema())
	ov := AttachSummary(set)
	defer ov.Detach()
	eng := NewEngine(set, nil, Options{Summary: ov})
	want, err := eng.BoundBatch(queries, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// TierExact: everything exact, bit-identical.
	got, prec, err := eng.BoundBatchTieredCtx(t.Context(), queries, TierSpec{Mode: TierExact}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if prec[i] != PrecisionExact || got[i] != want[i] {
			t.Fatalf("query %d: exact-mode batch diverged: %v %+v vs %+v", i, prec[i], got[i], want[i])
		}
	}

	// TierForceSummary: everything summary, everything containing exact.
	got, prec, err = eng.BoundBatchTieredCtx(t.Context(), queries, TierSpec{Mode: TierForceSummary}, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		if prec[i] != PrecisionSummary {
			t.Fatalf("query %d: forced summary batch escalated", i)
		}
		checkSummaryContains(t, "batch", queries[i], got[i], want[i])
	}

	// A budget between the extremes splits the batch; order and tagging
	// must survive the merge.
	budget := 0.0
	for _, q := range queries {
		if s, ok := eng.BoundSummary(q); ok && s.Lo <= s.Hi && s.Hi-s.Lo > budget {
			budget = s.Hi - s.Lo
		}
	}
	spec := TierSpec{Mode: TierAuto, MaxWidth: budget / 2}
	got, prec, err = eng.BoundBatchTieredCtx(t.Context(), queries, spec, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	summaries, exacts := 0, 0
	for i := range queries {
		switch prec[i] {
		case PrecisionSummary:
			summaries++
			checkSummaryContains(t, "split batch", queries[i], got[i], want[i])
		case PrecisionExact:
			exacts++
			if got[i] != want[i] {
				t.Fatalf("query %d: escalated batch entry %+v != plain %+v", i, got[i], want[i])
			}
		}
	}
	if summaries == 0 || exacts == 0 {
		t.Fatalf("mid budget did not split the batch: %d summary, %d exact", summaries, exacts)
	}
}

// BenchmarkTieredBound is the tentpole's latency claim in benchmark form:
// a within-budget summary answer vs the cold exact path (no decomposition
// cache, so no solve memo — the cost a cache-miss burst or fresh epoch pays)
// on the same store and query. The pcbench "tiered" suite records the same
// comparison in BENCH_PR8.json with the speedup computed in process.
func BenchmarkTieredBound(b *testing.B) {
	set := overlappingSet(b)
	ov := AttachSummary(set)
	defer ov.Detach()
	q := Query{Agg: Sum, Attr: "price",
		Where: predicate.NewBuilder(set.Schema()).Range("utc", 2, 18).Build()}
	spec := TierSpec{Mode: TierForceSummary}

	b.Run("summary", func(b *testing.B) {
		eng := NewEngine(set, nil, Options{Summary: ov})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, prec, err := eng.BoundTiered(q, spec)
			if err != nil {
				b.Fatal(err)
			}
			if prec != PrecisionSummary {
				b.Fatal("summary tier did not answer")
			}
		}
	})
	b.Run("exact-cold", func(b *testing.B) {
		eng := NewEngine(set, nil, Options{
			DisableFastPath: true, SequentialCells: true, DisableDecompCache: true,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Bound(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
