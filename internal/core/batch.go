package core

import (
	"context"
	"runtime"

	"pcbound/internal/parallel"
)

// This file implements the concurrent batch-bounding subsystem: BoundBatch
// fans a query workload out across a worker pool. Each worker runs against
// its own SAT-solver clone (statistics are folded back into the engine's
// solver when the batch completes) and all workers share the engine's
// decomposition cache, so queries over the same pushdown-normalized region
// reuse one DFS+SAT decomposition no matter which worker lands them.
//
// BoundBatch is deterministic: results[i] is bit-identical to what
// e.Bound(queries[i]) returns, at every parallelism level. Decompositions
// are pure functions of the normalized region, so cache hits and races to
// populate an entry cannot change any Range.

// BatchOptions configures BoundBatch.
type BatchOptions struct {
	// Parallelism is the number of worker goroutines bounding queries;
	// <= 0 uses runtime.GOMAXPROCS(0). 1 runs the batch sequentially on the
	// calling goroutine.
	Parallelism int
}

// BoundBatch bounds every query and returns the ranges in input order.
// Individual query failures do not abort the batch: every query is
// attempted, and the error of the lowest-indexed failing query (if any) is
// returned alongside the partial results, whose failed entries are zero.
func (e *Engine) BoundBatch(queries []Query, opts BatchOptions) ([]Range, error) {
	return e.BoundBatchCtx(context.Background(), queries, opts)
}

// BoundBatchCtx is BoundBatch with cooperative cancellation: once ctx is
// done, queries that have not started are skipped (their results stay zero
// and their per-query error is ctx's error), while bounds already in flight
// run to completion — a Bound is never abandoned half-way, which is what
// lets a serving layer drain gracefully. Cancellation granularity is one
// query: the first error returned is the lowest-indexed failing query's,
// which may be the context error when cancellation cut the batch short.
func (e *Engine) BoundBatchCtx(ctx context.Context, queries []Query, opts BatchOptions) ([]Range, error) {
	n := len(queries)
	if n == 0 {
		return nil, nil
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > n {
		par = n
	}
	results := make([]Range, n)
	errs := make([]error, n)
	if par == 1 {
		for i, q := range queries {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			results[i], errs[i] = e.Bound(q)
		}
		return results, firstError(errs)
	}
	workers := make([]*Engine, par)
	parallel.For(n, par, func(w, i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		we := workers[w]
		if we == nil {
			we = e.workerClone()
			workers[w] = we
		}
		results[i], errs[i] = we.Bound(queries[i])
	})
	for _, we := range workers {
		if we != nil {
			e.solver.AddStats(we.solver.Stats())
		}
	}
	return results, firstError(errs)
}

// workerClone returns an engine view for one batch worker: same snapshot,
// options, decomposition cache, scheduler and solve-context pool, but a
// private SAT-solver clone so per-worker solver work is attributable without
// contending on shared counters.
func (e *Engine) workerClone() *Engine {
	return &Engine{
		snap: e.snap, solver: e.solver.Clone(), opts: e.opts, cache: e.cache,
		sched: e.sched, ctxPool: e.ctxPool,
	}
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CacheStats reports decomposition-cache activity since the cache was
// created. The cache is shared across Rebind generations, so the counters
// cover the whole engine lineage (all zero when the cache is disabled).
type CacheStats struct {
	// Hits counts queries served from a cached decomposition, including
	// entries revalidated across epochs (Retained).
	Hits int64
	// Misses counts queries that had to run DFS+SAT decomposition.
	Misses int64
	// Retained counts cross-epoch revalidations: a cached entry kept alive
	// after store mutations because no mutation touched its region.
	Retained int64
	// Invalidated counts stale-lookup events: a query found its best cached
	// candidate unusable because a mutation's predicate box overlapped the
	// region after the entry's validity window (scoped invalidation; the
	// old full-flush design would fire for every live entry on every
	// mutation). The entry itself stays resident — it is still exact over
	// its own epoch interval for snapshot-pinned engines — so concurrent
	// lookups may count the same entry more than once.
	Invalidated int64
	// MemoHits and MemoMisses count lookups in the cached decompositions'
	// solve memos: directional solves, AVG and threshold searches, and
	// reachability in problems with an active frequency lower bound.
	MemoHits, MemoMisses int64
}

// CacheStats returns the decomposition cache's counters, solve memo
// included.
func (e *Engine) CacheStats() CacheStats {
	return e.cache.stats()
}
