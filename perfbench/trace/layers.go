package trace

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pcbound/internal/cells"
	"pcbound/internal/core"
	"pcbound/internal/sat"
	"pcbound/internal/wal"
	"pcbound/perfbench/bench"
)

// LayerPass is pass 4's record: the layers under the engine, timed one call
// at a time. Spans are indexed by op; zero where the op made no such call.
type LayerPass struct {
	// Decompose is cells.Decompose's time on each single read that missed
	// the decomposition cache in pass 3.
	Decompose []time.Duration
	// Summary is BoundSummary's time over each tier-opted read's queries.
	Summary []time.Duration
	// SummaryEvals counts the BoundSummary calls.
	SummaryEvals int
	Start        []time.Duration
}

// RunLayers replays the stream's store state without a WAL and, at each
// op, times the calls one layer below the engine: cells.Decompose for every
// single read whose region pass 3 had to decompose (misses[i] > 0), and
// BoundSummary for every query of a tier-opted read.
func RunLayers(in *bench.Inputs, ops []bench.Op, misses []int64) (*LayerPass, error) {
	cs, err := bootCore(in, "", CoreOptions{}, false)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	warm, err := decode(cs.store.Schema(), in.Warm)
	if err != nil {
		return nil, err
	}
	for i := range in.Warm {
		if err := cs.step(ctx, &in.Warm[i], &warm[i], 0); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	cs.adds = nil
	dec, err := decode(cs.store.Schema(), ops)
	if err != nil {
		return nil, err
	}
	n := len(ops)
	lp := &LayerPass{Decompose: make([]time.Duration, n), Summary: make([]time.Duration, n), Start: make([]time.Duration, n)}
	solver := sat.New(cs.store.Schema())
	start := time.Now()
	for i := range ops {
		op, d := &ops[i], &dec[i]
		lp.Start[i] = time.Since(start)
		if !op.Kind.Read() {
			if _, err := cs.mutate(op, d); err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		e := cs.pool.rollForward()
		if op.Kind == bench.Bound && misses[i] > 0 {
			t0 := time.Now()
			_, err := cells.Decompose(solver, e.Snapshot().Predicates(), cells.Options{Pushdown: d.queries[0].Where})
			lp.Decompose[i] = time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("op %d: decompose: %w", i, err)
			}
		}
		if d.tier {
			t0 := time.Now()
			for _, q := range d.queries {
				e.BoundSummary(q)
			}
			lp.Summary[i] = time.Since(t0)
			lp.SummaryEvals += len(d.queries)
		}
	}
	return lp, nil
}

// TimeAttach times core.AttachSummary on a freshly decoded (or recovered)
// boot store, median of k.
func TimeAttach(in *bench.Inputs, k int) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < k; i++ {
		cs, err := bootCore(in, "", CoreOptions{NoSummary: true}, false)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		ov := core.AttachSummary(cs.store)
		ds = append(ds, time.Since(t0))
		ov.Detach()
	}
	return bench.MedianDuration(ds), nil
}

// TimeRecover times wal.Open on fresh copies of a durable workload's
// template, median of k; zero for in-memory workloads.
func TimeRecover(in *bench.Inputs, dir string, k int) (time.Duration, error) {
	if !in.Durable() {
		return 0, nil
	}
	var ds []time.Duration
	for i := 0; i < k; i++ {
		d := filepath.Join(dir, fmt.Sprintf("recover-%d", i))
		if err := bench.CopyDir(in.Template, d); err != nil {
			return 0, err
		}
		t0 := time.Now()
		dur, err := wal.Open(wal.Options{Dir: d, Mode: wal.SyncAlways, Window: bench.WALWindow, CheckpointEvery: bench.CheckpointEvery})
		ds = append(ds, time.Since(t0))
		if err != nil {
			return 0, err
		}
		if err := dur.Close(); err != nil {
			return 0, err
		}
	}
	return bench.MedianDuration(ds), nil
}
