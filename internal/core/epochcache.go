package core

import (
	"sync"
	"sync/atomic"

	"pcbound/internal/domain"
)

// This file implements the decomposition cache: cell decompositions
// memoized by pushdown-normalized region, each together with a memo of the
// solves run over it (decompEntry). Entries carry the region box they were
// computed over plus the epoch interval [lo, hi] they are known valid for,
// and validity extends across store mutations whose predicate boxes do not
// overlap the region (scoped invalidation, consulting the store's bounded
// mutation log). A fresh decomposition would then see the identical kept
// predicate sequence and produce bit-identical cells, and every memoized
// solve over those cells the identical LP, so a hit is bit-identical to
// recomputation.

// decompEntry is one cached decomposition: the immutable cell problem and
// the memo of solves over it. The memo sits beside the problem rather than
// inside it (a cellProblem is never written after construction), and shares
// the entry's validity and eviction.
type decompEntry struct {
	cp   *cellProblem
	memo solveMemo
}

// solveMemo memoizes the problem-scoped results of one decomposition:
// reachability in coupled problems, whole-problem feasibility, directional
// solves, AVG searches and MIN/MAX threshold searches. Each is a pure
// function of the cell problem, the engine's MILP options (fixed for a
// Rebind lineage, which is all that shares a cache) and its key. Verdicts
// ride in solveResult.feasible and search endpoints in solveResult.bound.
// Two goroutines that miss the same key both solve it and store the same
// value.
type solveMemo struct {
	mu   sync.Mutex
	vals map[memoKey]solveResult // guarded by mu
}

// memoKey names one memoized task: the decomposition fixes the LP's rows,
// the key adds what shapes the task's objective and restrictions.
type memoKey struct {
	attr string // aggregated attribute ("" for COUNT, reachability and feasibility)
	cell int    // memoReach: the cell that must host a row
	task memoTask
	up   bool // maximizing / upper endpoint / ascending threshold / at least one row
}

type memoTask uint8

const (
	memoReach     memoTask = iota // can cell host a row (coupled problems only)
	memoFeasible                  // can any allocation satisfy the constraints
	memoCount                     // COUNT's directional solve
	memoSum                       // SUM's directional solve
	memoAvg                       // AVG's bisection endpoint
	memoThreshold                 // MIN/MAX's threshold search
)

func (m *solveMemo) get(k memoKey) (solveResult, bool) {
	m.mu.Lock()
	v, ok := m.vals[k]
	m.mu.Unlock()
	return v, ok
}

func (m *solveMemo) put(k memoKey, v solveResult) {
	m.mu.Lock()
	if m.vals == nil {
		m.vals = make(map[memoKey]solveResult)
	}
	m.vals[k] = v
	m.mu.Unlock()
}

// epochEntry is one cached decomposition together with the epoch interval
// [lo, hi] over which it is known valid. base is the region it was computed
// over; validity extends across a mutation exactly when no touched predicate
// box overlaps base on the schema lattice (the same overlap test Decompose
// uses to drop predicates from the branching set, so "no overlap" means a
// fresh decomposition would see the identical inputs).
type epochEntry struct {
	val    *decompEntry
	base   domain.Box
	lo, hi uint64 // guarded by epochCache.mu
	// used is the cache's logical clock at the entry's last hit, so per-key
	// eviction can drop the least-recently-used interval instead of
	// starving a still-active snapshot-pinned reader.
	used atomic.Int64
}

// maxEntriesPerKey bounds the epoch-interval entries kept per key: one for
// the store's frontier plus one for an engine pinned to an older snapshot
// (the auditor pattern), so neither starves the other out of the cache when
// the region was mutated in between.
const maxEntriesPerKey = 2

// epochCache memoizes decompositions by region key with epoch-interval
// validity. Entries are shared by all readers and all engines in a Rebind
// lineage. Store mutations do NOT flush the cache: get() consults the
// store's mutation log and retains every entry whose region no mutation
// touched (scoped invalidation), extending its validity interval; only
// entries overlapping a changed predicate box are dropped from consideration
// for the new epoch. Each key holds up to maxEntriesPerKey disjoint validity
// intervals, so a frontier engine and a snapshot-pinned one can both stay
// cached across a mutation that touched the region. When two goroutines race
// to compute the same key, both compute it (the result is identical either
// way) and one insertion wins; this keeps the fast path lock-cheap without a
// per-key singleflight.
type epochCache struct {
	store   *Store
	mu      sync.RWMutex
	entries map[string][]*epochEntry
	max     int
	clock   atomic.Int64 // logical time for LRU stamps

	hits, misses, retained, invalidated atomic.Int64
	// memoHits and memoMisses count lookups in the entries' solve memos.
	memoHits, memoMisses atomic.Int64
}

func newEpochCache(max int, store *Store) *epochCache {
	return &epochCache{store: store, entries: make(map[string][]*epochEntry), max: max}
}

func (c *epochCache) get(key string, epoch uint64) (*decompEntry, bool) {
	// Direct containment: the steady-state hit path, allocation-free.
	c.mu.RLock()
	ens := c.entries[key]
	for _, en := range ens {
		if epoch >= en.lo && epoch <= en.hi {
			val := en.val
			en.used.Store(c.clock.Add(1))
			c.mu.RUnlock()
			c.hits.Add(1)
			return val, true
		}
	}
	// No direct hit: snapshot the intervals for the extension decisions,
	// which run without the lock (they consult the store's mutation log).
	type view struct {
		en     *epochEntry
		lo, hi uint64
	}
	views := make([]view, len(ens))
	for i, en := range ens {
		views[i] = view{en, en.lo, en.hi}
	}
	c.mu.RUnlock()
	// Forward extension from the entry ending closest below epoch.
	var fwd *view
	for i := range views {
		if views[i].hi < epoch && (fwd == nil || views[i].hi > fwd.hi) {
			fwd = &views[i]
		}
	}
	if fwd != nil {
		if c.store.unchangedWithin(fwd.en.base, fwd.hi, epoch) {
			c.extend(key, fwd.en, epoch, true)
			fwd.en.used.Store(c.clock.Add(1))
			c.retained.Add(1)
			c.hits.Add(1)
			return fwd.en.val, true
		}
		// A mutation touched this region after the entry's validity window.
		// The entry is stale for this epoch but still exact over its own
		// [lo, hi] interval, so keep it for snapshot-pinned engines; the
		// per-key cap bounds accumulation when the frontier repopulates.
		c.invalidated.Add(1)
	}
	// Backward extension: an engine bound to an older snapshot probing an
	// entry created later. If nothing touching the region happened in
	// between, the value is the same and validity extends backwards.
	var bwd *view
	for i := range views {
		if views[i].lo > epoch && (bwd == nil || views[i].lo < bwd.lo) {
			bwd = &views[i]
		}
	}
	if bwd != nil && c.store.unchangedWithin(bwd.en.base, epoch, bwd.lo) {
		c.extend(key, bwd.en, epoch, false)
		bwd.en.used.Store(c.clock.Add(1))
		c.retained.Add(1)
		c.hits.Add(1)
		return bwd.en.val, true
	}
	c.misses.Add(1)
	return nil, false
}

// extend widens an entry's validity interval to include epoch, unless the
// entry was concurrently evicted.
func (c *epochCache) extend(key string, en *epochEntry, epoch uint64, forward bool) {
	c.mu.Lock()
	for _, cur := range c.entries[key] {
		if cur == en {
			if forward && en.hi < epoch {
				en.hi = epoch
			} else if !forward && en.lo > epoch {
				en.lo = epoch
			}
			break
		}
	}
	c.mu.Unlock()
}

func (c *epochCache) put(key string, base domain.Box, val *decompEntry, epoch uint64) {
	en := &epochEntry{val: val, base: base, lo: epoch, hi: epoch}
	en.used.Store(c.clock.Add(1))
	c.mu.Lock()
	defer c.mu.Unlock()
	ens := c.entries[key]
	for _, cur := range ens {
		if epoch >= cur.lo && epoch <= cur.hi {
			return // a racer already covers this epoch
		}
	}
	if len(ens) == 0 && len(c.entries) >= c.max {
		// At capacity, evict an arbitrary key (map iteration order) rather
		// than refusing the insert: entries survive mutations, so a workload
		// whose region set drifts past the capacity would otherwise lock the
		// cache into regions it never queries again. Eviction can only cost
		// a recomputation, never change a result.
		//pcvet:ignore determinism eviction victim choice is deliberately arbitrary; a miss costs a recompute, never a different bound
		for victim := range c.entries {
			delete(c.entries, victim)
			break
		}
	}
	ens = append(ens, en)
	if len(ens) > maxEntriesPerKey {
		// Drop the least-recently-used resident interval, but never the
		// entry just inserted — evicting the newcomer would permanently
		// starve the engine that computed it. LRU (rather than smallest-hi)
		// keeps a long-lived snapshot-pinned reader's entry alive across
		// frontier churn: a dead old frontier interval is untouched since
		// its last repopulation, while the pinned reader re-stamps its entry
		// on every hit.
		low := -1
		for i, cur := range ens {
			if cur == en {
				continue
			}
			if low < 0 || cur.used.Load() < ens[low].used.Load() {
				low = i
			}
		}
		ens = append(ens[:low], ens[low+1:]...)
	}
	c.entries[key] = ens
}

// stats exports the cache's counters in the shared CacheStats shape.
func (c *epochCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Retained:    c.retained.Load(),
		Invalidated: c.invalidated.Load(),
		MemoHits:    c.memoHits.Load(),
		MemoMisses:  c.memoMisses.Load(),
	}
}
