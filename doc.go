// Package pcbound is a from-scratch Go reproduction of "Fast and Reliable
// Missing Data Contingency Analysis with Predicate-Constraints" (Liang,
// Shang, Elmore, Krishnan, Franklin — SIGMOD 2020, arXiv:2004.04139).
//
// The library computes hard, deterministic result ranges for SUM, COUNT,
// AVG, MIN and MAX SQL aggregate queries over relations with missing rows,
// given user-specified predicate-constraints on the frequency and variation
// of the missing tuples. See README.md for a quickstart, the package map,
// and the experiment index.
//
// Constraint sets are dynamic: the constraint layer is a versioned, mutable
// core.Store supporting Add, Remove and Replace, with cheap copy-on-write
// Snapshot()s. Every mutation bumps the store's epoch; an Engine (and every
// BoundBatch worker) binds to one snapshot for its lifetime, so concurrent
// writers never perturb in-flight queries, and Engine.Rebind moves to the
// latest snapshot while keeping the decomposition cache warm. The cache
// invalidates by scope, not by flushing: an entry survives a mutation
// whenever no touched predicate box overlaps the entry's
// pushdown-normalized region on the schema lattice, which makes the
// mutate→rebound cycle far cheaper than rebuilding the engine (see
// BenchmarkIncrementalUpdate). Closure of the constraint set over the
// domain (Definition 3.2) is tracked incrementally across mutations by
// sat.Incremental.
//
// Within one query, the unit of scheduled solver work is a cell solve, not
// the query: per-cell feasibility MILPs, the two directional solves, AVG's
// bisection searches and MIN/MAX threshold probes are dispatched
// cost-ordered (most constraint-coupled cells first, against skew) on a
// shared work scheduler (internal/sched) fed by every in-flight query of
// every engine pointed at it, so one MILP-heavy query fans out across cores
// instead of pegging one. Results land in index-addressed slots and reduce
// in fixed cell order, making ranges bit-identical to the sequential path
// (core.Options.SequentialCells) at any parallelism. Per-cell reachability
// needs no solve when no frequency lower bound is active (a cell can host a
// row exactly when every active constraint allows one), and every other
// solve over a cached decomposition is memoized in its cache entry, sharing
// the entry's epoch-interval validity and scoped invalidation — repeated
// traffic skips LP/MILP entirely (see BenchmarkIntraQuery; reproduce the
// suite with `go run ./cmd/pcbench -bench intraquery -json out.json`).
//
// Above the exact solver sits a tiered-precision summary layer
// (internal/summary, attached by core.AttachSummary): per-constraint
// sketches — predicate boxes, clipped value hulls, frequency totals and a
// pairwise-disjointness certificate — maintained incrementally from the
// same mutation stream the WAL consumes, answering any of the five
// aggregates with a sound outer interval in O(constraints·dims) without
// touching LP/MILP. Summary intervals always contain the exact range
// (enforced by a randomized soundness differential and per-finding ulp
// widening of float sums), the exact path is bit-identical with or without
// the overlay, and core.BoundTiered escalates summary→exact under a
// caller-chosen width budget (see the tiered suite in the committed
// BENCH_PR8.json: the summary tier answers a MILP-heavy query three
// orders of magnitude faster than a cold exact solve).
//
// The stack also serves over the network: cmd/pcserved exposes bound/batch
// queries and store mutations as an HTTP JSON API (internal/server), where
// every read request is pinned to a store snapshot — the latest by default,
// or, via the request's epoch field, an older retained one, answered
// bit-identically to the original read no matter how the store has moved
// since. Engines come from a rebind-on-demand pool sharing one solver,
// solve-context pool, and decomposition cache across requests; reads may
// opt into tiered precision ("precision"/"max_width" request fields, every
// response tagged with the tier that answered); overload degrades
// tier-opted requests to summary answers before anything is shed with 429
// backpressure rather than unbounded queueing; and shutdown
// drains in-flight bounds (core.BoundBatchCtx skips only queries that have
// not started). cmd/pcload closed-loop-drives the API with a configurable
// bound/batch/mutate mix, reporting throughput and tail latency, and can
// verify served ranges bitwise against a local engine rebuilt from
// GET /v1/store.
//
// With a data directory, the served store is crash-safe (internal/wal):
// every mutation is appended to a CRC-framed write-ahead log before it is
// acknowledged — concurrent commits coalescing into one fsync under a
// group-commit window — and periodic snapshot checkpoints truncate the log
// behind them. Recovery loads the newest readable checkpoint, replays the
// tail, truncates away a torn final record, and restores the epoch counter
// and stable PCIDs exactly: a restarted server is bit-identical to one that
// never crashed, a property the tests enforce by simulating a crash at
// every filesystem operation of a workload over an injectable in-memory
// filesystem, and CI re-proves on a real server by SIGKILLing it under
// load (ci/crash_e2e.sh). cmd/pcwal inspects a data directory offline,
// read-only.
//
// The same log replicates: a pcserved started with -follow bootstraps from
// the primary's newest checkpoint and tails its WAL (wal.Tailer, over
// /v1/wal HTTP endpoints or a shared directory), applying the identical
// record stream recovery replays — so an epoch-pinned read on a follower is
// bit-identical to the primary's at that epoch. Truncation and tailing meet
// in a lease contract: every tailing request heartbeats the follower's
// replica lease with the epoch it has applied, checkpoint truncation holds
// every segment a live lease still needs, and two primary-side bounds —
// lease expiry for silent followers, a max-replica-lag cap for hopelessly
// slow ones — keep any single follower from pinning the log forever. A
// follower truncated past those bounds self-heals in place: the tail
// re-bootstraps from the newest checkpoint and atomically swaps the rebuilt
// store behind the serving path (in-flight pinned reads finish on their old
// snapshots, new pins into the discarded lineage answer 410, the event is
// counted in /metrics). cmd/pcrouter fronts such a fleet with one address:
// mutations forward to the primary and fail fast when it is down, reads
// balance across followers honoring each request's epoch pin against
// health-tracked frontiers and fail over on backend errors
// (internal/router). CI drills the whole story on real processes with
// SIGKILL, SIGSTOP and forced truncation (ci/repl_e2e.sh, ci/chaos_e2e.sh).
//
// Those invariants are machine-checked: cmd/pcvet is a custom static
// analysis suite (internal/analysis) that CI runs over the whole module
// via `go vet -vettool`. Its four analyzers enforce that map iteration
// order never reaches a bit-identical reduction (determinism), that
// nothing writes through a Snapshot or cached decomposition after
// construction (snapmut), that fields annotated `// guarded by mu` are
// only touched with the mutex held (lockcheck), and that the serving
// layer threads request contexts into the solver (ctxflow). Deliberate
// exceptions carry a //pcvet:ignore comment with a mandatory
// justification. See the README's "Correctness tooling" section.
//
// The root package carries module documentation and the per-figure
// benchmarks (bench_test.go); the implementation lives under internal/:
//
//   - internal/core — the predicate-constraint framework: versioned Store,
//     snapshots, the bounding Engine (Sections 3-4)
//   - internal/cells, internal/sat — cell decomposition and its SAT oracle
//   - internal/sched — the shared cost-ordered cell-solve scheduler
//   - internal/lp, internal/milp — simplex and branch-and-bound solvers
//   - internal/join — fractional-edge-cover join bounds (Section 5)
//   - internal/baselines, internal/pcgen, internal/data, internal/workload,
//     internal/experiments — the full evaluation harness (Section 6)
package pcbound
