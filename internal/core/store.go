package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"pcbound/internal/domain"
	"pcbound/internal/predicate"
	"pcbound/internal/sat"
)

// This file implements the versioned, mutable constraint store and its
// copy-on-write snapshots.
//
// Contingency analysis is dynamic: analysts add, tighten, and retract
// predicate-constraints as they learn more about the missing data. The Store
// supports Add, Remove, and Replace under a single writer lock, while
// Snapshot() hands out cheap immutable views. An Engine (and every worker in
// its BoundBatch pool) binds to one snapshot for its lifetime, so concurrent
// writers never perturb in-flight queries, and results computed against a
// snapshot are bit-identical to a freshly built engine over the same PC
// multiset.
//
// Versioning model:
//
//   - Every successful mutating call bumps the store epoch by one and
//     records the predicate boxes it touched in a bounded mutation log.
//   - A snapshot is pinned to the epoch it was taken at. Snapshots are
//     copy-on-write: taking one is O(1); the next mutation copies the PC
//     slice once so the snapshot's view stays frozen.
//   - Engine-side decomposition caches consult the mutation log to decide,
//     per cached region, whether any mutation between two epochs could have
//     changed that region's decomposition (scoped invalidation — see
//     epochCache in epochcache.go).
//
// The closure check (Definition 3.2) is maintained incrementally: the store
// keeps a sat.Incremental tracker of the uncovered remainder of the domain
// and applies predicate adds/removes to it as deltas instead of re-solving
// from scratch; Snapshot.Closed is the stateless reference implementation
// the tracker is differentially tested against.

// PCID is a stable handle for one constraint in a Store. It survives
// mutations of other constraints: Replace keeps the id, Remove retires it.
type PCID uint64

// Store is a versioned, mutable predicate-constraint store over one schema.
// All methods are safe for concurrent use; readers that need a stable view
// across multiple calls should take a Snapshot.
type Store struct {
	schema *domain.Schema

	// mu guards the fields below. Read-mostly accessors (Epoch, Len, Get,
	// and the cache's mutation-log checks) take the read side, so cache
	// revalidation bursts after a mutation do not serialize against each
	// other — only against writers, which is inherent.
	mu     sync.RWMutex
	pcs    []PC       // guarded by mu
	ids    []PCID     // guarded by mu
	shared bool       // guarded by mu; pcs/ids are aliased by the cached snapshot
	epoch  uint64     // guarded by mu
	nextID PCID       // guarded by mu
	snap   *Snapshot  // guarded by mu; cached snapshot of the current state (nil until asked)
	hook   CommitHook // guarded by mu; fired after every committed mutation
	// hooks are additional commit observers (AddCommitHook), fired after the
	// primary hook in registration order. Removed hooks leave a nil slot so
	// registration order — and therefore firing order — is stable.
	hooks []CommitHook // guarded by mu

	// log records, per epoch, the predicate boxes touched by that mutation;
	// it covers epochs (logFloor, epoch]. Bounded: once trimmed, scoped cache
	// validation over the trimmed range degrades to conservative invalidation.
	log      []mutRecord // guarded by mu
	logFloor uint64      // guarded by mu

	// Closure tracking is decoupled from mu so the (potentially expensive)
	// SAT work in Closed/Uncovered never blocks the serving path: mutators
	// only enqueue small delta records under opsMu; the tracker itself is
	// built lazily and brought up to date under closureMu when queried.
	opsMu       sync.Mutex
	closureOps  []closureOp // guarded by opsMu
	opsOverflow bool        // guarded by opsMu; queue was capped; next query rebuilds from a snapshot

	closureMu     sync.Mutex
	closure       *sat.Incremental // guarded by closureMu
	closureSolver *sat.Solver      // guarded by closureMu
	closureEpoch  uint64           // guarded by closureMu; store epoch the tracker reflects
}

// closureOp is one queued mutation delta for the closure tracker.
type closureOp struct {
	epoch uint64
	kind  opKind
	id    PCID
	box   domain.Box // add/replace only
}

type opKind uint8

const (
	opAdd opKind = iota
	opRemove
	opReplace
)

// maxClosureOps bounds the pending-delta queue when Closed is never called;
// past it the queue is dropped and the next query rebuilds from a snapshot.
const maxClosureOps = 4096

// mutRecord is one mutation's imprint: the epoch it produced and the
// predicate boxes of every constraint it added, removed, or replaced (both
// the old and the new box for Replace).
type mutRecord struct {
	epoch uint64
	boxes []domain.Box
}

// maxMutLog bounds the mutation log. Cache entries older than the log window
// are invalidated conservatively rather than revalidated.
const maxMutLog = 512

// MutKind discriminates replayable mutation records.
type MutKind uint8

const (
	// MutAdd records an AddPCs call: PCs are the added constraints, IDs the
	// stable ids they were assigned, positionally aligned.
	MutAdd MutKind = iota + 1
	// MutRemove records a Remove call: IDs holds the one retired id.
	MutRemove
	// MutReplace records a Replace call: IDs holds the kept id, PCs the one
	// new constraint.
	MutReplace
)

func (k MutKind) String() string {
	switch k {
	case MutAdd:
		return "add"
	case MutRemove:
		return "remove"
	case MutReplace:
		return "replace"
	default:
		return fmt.Sprintf("MutKind(%d)", int(k))
	}
}

// MutationRecord is the replayable description of one committed mutation:
// the epoch it produced, and enough payload to reproduce the exact same
// store transition — including id assignment — via ApplyRecord. A store
// rebuilt by replaying a record stream onto the pre-stream state is
// bit-identical (same PCs, ids, epoch, and future id allocation) to the
// store that emitted it; the durability layer (internal/wal) is built on
// exactly this property.
type MutationRecord struct {
	Epoch uint64
	Kind  MutKind
	IDs   []PCID // MutAdd: assigned ids (aligned with PCs); otherwise one id
	PCs   []PC   // MutAdd: added constraints; MutReplace: the new constraint
}

// CommitHook observes committed mutations. It is called synchronously under
// the store's write lock, immediately after the mutation commits and before
// the mutating call returns, so invocations are strictly ordered by epoch.
// Implementations must be fast and must not call back into the store; the
// record's slices are the hook's to keep (they alias nothing store-owned).
type CommitHook func(rec MutationRecord)

// SetCommitHook registers the hook fired on every committed mutation (nil
// unregisters). Replays via ApplyRecord do not fire it — the hook sees only
// new mutations, which is what a write-ahead log wants.
func (s *Store) SetCommitHook(h CommitHook) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hook = h
}

// AddCommitHook registers an additional commit observer alongside the
// primary hook (SetCommitHook, owned by the WAL). Observers fire after the
// primary hook, in registration order, under the same CommitHook contract:
// synchronously under the store's write lock, with a private deep copy of
// the record. The returned function unregisters the observer; it is safe to
// call more than once.
func (s *Store) AddCommitHook(h CommitHook) (remove func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addCommitHookLocked(h)
}

// addCommitHookLocked is AddCommitHook for callers already holding mu, so a
// observer can snapshot the store's current state and start observing with
// no mutation slipping between the two.
func (s *Store) addCommitHookLocked(h CommitHook) (remove func()) {
	i := len(s.hooks)
	s.hooks = append(s.hooks, h)
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.hooks[i] = nil
	}
}

// NewStore creates an empty constraint store over the schema.
func NewStore(schema *domain.Schema) *Store { return &Store{schema: schema} }

// Schema returns the store's schema.
func (s *Store) Schema() *domain.Schema { return s.schema }

// Epoch returns the store's mutation counter: it increases by one on every
// successful Add, Remove, or Replace call.
func (s *Store) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// Version is an alias of Epoch, kept for callers of the pre-Store API.
func (s *Store) Version() uint64 { return s.Epoch() }

// Len returns the number of constraints.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pcs)
}

// clonePC returns a copy of the constraint that shares no mutable state
// with the original. Pred is immutable by API (predicate.P has no setters
// and Box() returns a clone), so sharing the pointer is safe; Values is a
// raw box slice and must be cloned on both ingest and egress, or a caller
// mutating it would silently corrupt the store, every outstanding snapshot,
// and every cached decomposition referencing it.
func clonePC(pc PC) PC {
	pc.Values = pc.Values.Clone()
	return pc
}

// clonePCs deep-copies a constraint slice (see clonePC).
func clonePCs(pcs []PC) []PC {
	out := make([]PC, len(pcs))
	for i, pc := range pcs {
		out[i] = clonePC(pc)
	}
	return out
}

// validatePC checks a constraint against the store's schema.
func (s *Store) validatePC(pc PC) error {
	if pc.Pred == nil {
		return errors.New("core: predicate-constraint with nil predicate")
	}
	if pc.Pred.Schema() != s.schema {
		return errors.New("core: predicate-constraint over a different schema")
	}
	if len(pc.Values) != s.schema.Len() {
		return fmt.Errorf("core: value box has %d dims, schema has %d", len(pc.Values), s.schema.Len())
	}
	if pc.KLo < 0 || pc.KLo > pc.KHi {
		return fmt.Errorf("core: invalid frequency window [%d, %d]", pc.KLo, pc.KHi)
	}
	return nil
}

// detachLocked makes the store sole owner of its PC slices (copying them if a
// snapshot aliases them) and drops the cached snapshot. Callers must hold mu
// and must be about to mutate.
func (s *Store) detachLocked() {
	if s.shared {
		s.pcs = append([]PC(nil), s.pcs...)
		s.ids = append([]PCID(nil), s.ids...)
		s.shared = false
	}
	s.snap = nil
}

// commitLocked finishes a mutation: bumps the epoch and appends the touched
// boxes to the mutation log.
func (s *Store) commitLocked(boxes []domain.Box) {
	s.epoch++
	s.log = append(s.log, mutRecord{epoch: s.epoch, boxes: boxes})
	if len(s.log) > maxMutLog {
		drop := len(s.log) - maxMutLog
		s.logFloor = s.log[drop-1].epoch
		s.log = append(s.log[:0], s.log[drop:]...)
	}
}

// recordClosureOps enqueues closure deltas for the epoch just committed.
// Cheap by design (no SAT work): the tracker catches up lazily on the next
// Closed/Uncovered call. Callers hold mu; lock order is mu → opsMu.
func (s *Store) recordClosureOps(ops ...closureOp) {
	s.opsMu.Lock()
	if len(s.closureOps)+len(ops) > maxClosureOps {
		s.closureOps = nil
		s.opsOverflow = true
	} else {
		s.closureOps = append(s.closureOps, ops...)
	}
	s.opsMu.Unlock()
}

// Add appends predicate-constraints to the store (one epoch bump for the
// whole call).
func (s *Store) Add(pcs ...PC) error {
	_, err := s.AddPCs(pcs...)
	return err
}

// AddPCs appends predicate-constraints and returns their stable ids.
func (s *Store) AddPCs(pcs ...PC) ([]PCID, error) {
	if len(pcs) == 0 {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, pc := range pcs {
		if err := s.validatePC(pc); err != nil {
			return nil, err
		}
	}
	ids := make([]PCID, len(pcs))
	for i := range pcs {
		s.nextID++
		ids[i] = s.nextID
	}
	s.applyAddLocked(pcs, ids)
	s.fireHookLocked(MutAdd, ids, pcs)
	return ids, nil
}

// applyAddLocked appends validated constraints under the given ids and
// commits the epoch bump. Shared by AddPCs (fresh ids) and ApplyRecord
// (replayed ids); the id allocator's high-water mark follows the largest id
// seen either way.
func (s *Store) applyAddLocked(pcs []PC, ids []PCID) {
	s.detachLocked()
	boxes := make([]domain.Box, len(pcs))
	for i, pc := range pcs {
		s.pcs = append(s.pcs, clonePC(pc))
		s.ids = append(s.ids, ids[i])
		if ids[i] > s.nextID {
			s.nextID = ids[i]
		}
		boxes[i] = pc.Pred.Box()
	}
	s.commitLocked(boxes)
	ops := make([]closureOp, len(ids))
	for i, id := range ids {
		ops[i] = closureOp{epoch: s.epoch, kind: opAdd, id: id, box: boxes[i]}
	}
	s.recordClosureOps(ops...)
}

// fireHookLocked hands the commit hook its mutation record (see CommitHook).
// The payload is deep-copied so the hook may keep it without aliasing either
// the caller's or the store's state.
func (s *Store) fireHookLocked(kind MutKind, ids []PCID, pcs []PC) {
	if s.hook != nil {
		s.hook(s.recordLocked(kind, ids, pcs))
	}
	s.fireObserversLocked(kind, ids, pcs)
}

// fireObserversLocked notifies the commit observers (AddCommitHook) without
// touching the primary hook. Replication uses this directly: a follower's
// derived state (the summary overlay) must track replicated commits, but
// the primary hook is the WAL's — re-logging replayed history would fork it.
func (s *Store) fireObserversLocked(kind MutKind, ids []PCID, pcs []PC) {
	for _, h := range s.hooks {
		if h != nil {
			// Each observer gets its own copy: the record's slices are the
			// hook's to keep, so they cannot be shared between hooks.
			h(s.recordLocked(kind, ids, pcs))
		}
	}
}

// recordLocked builds a deep-copied mutation record at the current epoch.
func (s *Store) recordLocked(kind MutKind, ids []PCID, pcs []PC) MutationRecord {
	rec := MutationRecord{Epoch: s.epoch, Kind: kind, IDs: append([]PCID(nil), ids...)}
	if len(pcs) > 0 {
		rec.PCs = clonePCs(pcs)
	}
	return rec
}

// MustAdd is Add that panics on error.
func (s *Store) MustAdd(pcs ...PC) {
	if err := s.Add(pcs...); err != nil {
		panic(err)
	}
}

// indexOfLocked returns the position of id, or -1.
func (s *Store) indexOfLocked(id PCID) int {
	for i, got := range s.ids {
		if got == id {
			return i
		}
	}
	return -1
}

// Remove retracts the constraint with the given id.
func (s *Store) Remove(id PCID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.indexOfLocked(id)
	if i < 0 {
		return fmt.Errorf("core: no constraint with id %d", id)
	}
	s.applyRemoveLocked(i, id)
	s.fireHookLocked(MutRemove, []PCID{id}, nil)
	return nil
}

// applyRemoveLocked retracts the constraint at index i (holding id) and
// commits the epoch bump. Shared by Remove and ApplyRecord.
func (s *Store) applyRemoveLocked(i int, id PCID) {
	box := s.pcs[i].Pred.Box()
	s.detachLocked()
	s.pcs = append(s.pcs[:i], s.pcs[i+1:]...)
	s.ids = append(s.ids[:i], s.ids[i+1:]...)
	s.commitLocked([]domain.Box{box})
	s.recordClosureOps(closureOp{epoch: s.epoch, kind: opRemove, id: id})
}

// Replace swaps the constraint with the given id for a new one, keeping the
// id and the position (typical for tightening a constraint in place).
func (s *Store) Replace(id PCID, pc PC) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.indexOfLocked(id)
	if i < 0 {
		return fmt.Errorf("core: no constraint with id %d", id)
	}
	if err := s.validatePC(pc); err != nil {
		return err
	}
	s.applyReplaceLocked(i, id, pc)
	s.fireHookLocked(MutReplace, []PCID{id}, []PC{pc})
	return nil
}

// applyReplaceLocked swaps the constraint at index i (holding id) for the
// validated pc and commits the epoch bump. Shared by Replace and ApplyRecord.
func (s *Store) applyReplaceLocked(i int, id PCID, pc PC) {
	oldBox := s.pcs[i].Pred.Box()
	newBox := pc.Pred.Box()
	s.detachLocked()
	s.pcs[i] = clonePC(pc)
	s.commitLocked([]domain.Box{oldBox, newBox})
	s.recordClosureOps(closureOp{epoch: s.epoch, kind: opReplace, id: id, box: newBox})
}

// ApplyRecord replays one previously recorded mutation onto the store,
// reproducing the exact transition the record describes: the same
// constraints, the same stable ids, the same epoch, and the same future id
// allocation. Records must be applied in order — rec.Epoch must be exactly
// the store's epoch plus one — and must be consistent with the store (adds
// must not collide with live ids, removes and replaces must resolve). The
// commit hook is not fired: replay reconstructs history, it does not make
// new history.
func (s *Store) ApplyRecord(rec MutationRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyRecordLocked(rec)
}

// ApplyReplicated applies one record shipped from a primary's log onto a
// follower store. It validates and applies exactly like ApplyRecord, but
// fires the commit observers (AddCommitHook) so derived state — the summary
// overlay — tracks the replicated commit. The primary hook (SetCommitHook)
// still does not fire: that hook belongs to a WAL manager, and a follower
// must not re-log history it is receiving.
func (s *Store) ApplyReplicated(rec MutationRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.applyRecordLocked(rec); err != nil {
		return err
	}
	s.fireObserversLocked(rec.Kind, rec.IDs, rec.PCs)
	return nil
}

// applyRecordLocked validates and applies one replay/replication record.
func (s *Store) applyRecordLocked(rec MutationRecord) error {
	if rec.Epoch != s.epoch+1 {
		return fmt.Errorf("core: replay gap: record epoch %d does not follow store epoch %d", rec.Epoch, s.epoch)
	}
	switch rec.Kind {
	case MutAdd:
		if len(rec.PCs) == 0 || len(rec.IDs) != len(rec.PCs) {
			return fmt.Errorf("core: malformed add record at epoch %d: %d ids for %d constraints", rec.Epoch, len(rec.IDs), len(rec.PCs))
		}
		for _, pc := range rec.PCs {
			if err := s.validatePC(pc); err != nil {
				return fmt.Errorf("core: add record at epoch %d: %w", rec.Epoch, err)
			}
		}
		for i, id := range rec.IDs {
			if id == 0 {
				return fmt.Errorf("core: add record at epoch %d assigns id 0", rec.Epoch)
			}
			if s.indexOfLocked(id) >= 0 {
				return fmt.Errorf("core: add record at epoch %d reuses live id %d", rec.Epoch, id)
			}
			for _, prev := range rec.IDs[:i] {
				if prev == id {
					return fmt.Errorf("core: add record at epoch %d assigns id %d twice", rec.Epoch, id)
				}
			}
		}
		s.applyAddLocked(rec.PCs, rec.IDs)
	case MutRemove:
		if len(rec.IDs) != 1 || len(rec.PCs) != 0 {
			return fmt.Errorf("core: malformed remove record at epoch %d", rec.Epoch)
		}
		i := s.indexOfLocked(rec.IDs[0])
		if i < 0 {
			return fmt.Errorf("core: remove record at epoch %d names unknown id %d", rec.Epoch, rec.IDs[0])
		}
		s.applyRemoveLocked(i, rec.IDs[0])
	case MutReplace:
		if len(rec.IDs) != 1 || len(rec.PCs) != 1 {
			return fmt.Errorf("core: malformed replace record at epoch %d", rec.Epoch)
		}
		i := s.indexOfLocked(rec.IDs[0])
		if i < 0 {
			return fmt.Errorf("core: replace record at epoch %d names unknown id %d", rec.Epoch, rec.IDs[0])
		}
		if err := s.validatePC(rec.PCs[0]); err != nil {
			return fmt.Errorf("core: replace record at epoch %d: %w", rec.Epoch, err)
		}
		s.applyReplaceLocked(i, rec.IDs[0], rec.PCs[0])
	default:
		return fmt.Errorf("core: unknown mutation kind %d at epoch %d", rec.Kind, rec.Epoch)
	}
	return nil
}

// RestoreStore rebuilds a store from externally captured state: the
// constraint multiset with its stable ids, the epoch counter, and the id
// allocator's high-water mark — exactly what a durability checkpoint
// persists (see internal/wal). The restored store numbers epochs and ids
// exactly where the captured store would have, so applying the same
// mutations to both yields bit-identical stores. Its mutation log starts
// empty with the floor at the restored epoch, so engine caches revalidate
// conservatively across the restore boundary rather than trusting a window
// the restored store cannot vouch for.
func RestoreStore(schema *domain.Schema, pcs []PC, ids []PCID, epoch uint64, nextID PCID) (*Store, error) {
	if len(pcs) != len(ids) {
		return nil, fmt.Errorf("core: restore has %d constraints but %d ids", len(pcs), len(ids))
	}
	s := &Store{schema: schema, epoch: epoch, nextID: nextID, logFloor: epoch}
	seen := make(map[PCID]bool, len(ids))
	for i, pc := range pcs {
		if err := s.validatePC(pc); err != nil {
			return nil, fmt.Errorf("core: restore constraint %d: %w", i, err)
		}
		id := ids[i]
		if id == 0 || id > nextID {
			return nil, fmt.Errorf("core: restore constraint %d: id %d outside allocator high-water %d", i, id, nextID)
		}
		if seen[id] {
			return nil, fmt.Errorf("core: restore constraint %d: duplicate id %d", i, id)
		}
		seen[id] = true
	}
	s.pcs = clonePCs(pcs)
	s.ids = append([]PCID(nil), ids...)
	return s, nil
}

// Get returns a copy of the constraint with the given id (mutating the
// returned PC never affects the store).
func (s *Store) Get(id PCID) (PC, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i := s.indexOfLocked(id); i >= 0 {
		return clonePC(s.pcs[i]), true
	}
	return PC{}, false
}

// Snapshot returns an immutable view of the store's current state. Snapshots
// are copy-on-write: taking one is O(1) and repeated calls between mutations
// return the same object; the first mutation afterwards copies the PC slice
// once, so outstanding snapshots are never perturbed.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap == nil {
		s.snap = &Snapshot{
			store:  s,
			schema: s.schema,
			pcs:    s.pcs,
			ids:    s.ids,
			epoch:  s.epoch,
			nextID: s.nextID,
		}
		s.shared = true
	}
	return s.snap
}

// unchangedWithin reports whether no mutation with epoch in (from, to]
// touched a predicate box overlapping base on the schema lattice. It returns
// false conservatively when the mutation log no longer reaches back to from.
func (s *Store) unchangedWithin(base domain.Box, from, to uint64) bool {
	if from > to {
		from, to = to, from
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if from < s.logFloor {
		return false
	}
	// The log is epoch-sorted and append-only: binary-search the start of
	// the (from, to] window instead of scanning from the front.
	i := sort.Search(len(s.log), func(i int) bool { return s.log[i].epoch > from })
	for ; i < len(s.log) && s.log[i].epoch <= to; i++ {
		for _, b := range s.log[i].boxes {
			if base.OverlapsFor(b, s.schema) {
				return false
			}
		}
	}
	return true
}

// syncClosure brings the incremental closure tracker up to date. Callers
// hold closureMu (never mu), so the SAT work here cannot block writers,
// Snapshot/Rebind, or the cache's mutation-log checks. Lock order:
// closureMu → {mu (via Snapshot), opsMu}; mutators take mu → opsMu; the
// graph is acyclic.
//
//pcvet:locked closureMu
func (s *Store) syncClosure(solver *sat.Solver) {
	s.opsMu.Lock()
	ops := s.closureOps
	s.closureOps = nil
	overflow := s.opsOverflow
	s.opsOverflow = false
	s.opsMu.Unlock()

	if s.closure == nil || s.closureSolver != solver || overflow {
		// Rebuild from a snapshot taken AFTER draining the queue: the drained
		// ops are all covered by the snapshot, and any op racing in between
		// stays queued — the epoch guard below skips it next time if the
		// snapshot already includes it.
		snap := s.Snapshot()
		s.closure = sat.NewIncremental(solver, s.schema.FullBox())
		s.closureSolver = solver
		for i, pc := range snap.pcs {
			s.closure.Add(uint64(snap.ids[i]), pc.Pred.Box())
		}
		s.closureEpoch = snap.epoch
		return
	}
	for _, op := range ops {
		if op.epoch <= s.closureEpoch {
			continue // already reflected by an earlier rebuild
		}
		switch op.kind {
		case opAdd:
			s.closure.Add(uint64(op.id), op.box)
		case opRemove:
			s.closure.Remove(uint64(op.id))
		case opReplace:
			s.closure.Replace(uint64(op.id), op.box)
		}
	}
	if n := len(ops); n > 0 && ops[n-1].epoch > s.closureEpoch {
		s.closureEpoch = ops[n-1].epoch
	}
}

// Closed reports whether the store is closed over the schema domain
// (Definition 3.2): every point of the domain satisfies at least one
// predicate. The check is maintained incrementally across mutations (see
// sat.Incremental); Snapshot.Closed is the stateless reference it is
// differentially tested against. The answer reflects every mutation that
// completed before the call.
func (s *Store) Closed(solver *sat.Solver) bool {
	s.closureMu.Lock()
	defer s.closureMu.Unlock()
	s.syncClosure(solver)
	return s.closure.Covered()
}

// Uncovered returns a witness point of the domain not covered by any
// predicate, if the store is not closed.
func (s *Store) Uncovered(solver *sat.Solver) (domain.Row, bool) {
	s.closureMu.Lock()
	defer s.closureMu.Unlock()
	s.syncClosure(solver)
	return s.closure.Witness()
}

// PCs returns a copy of the current constraints. Callers may mutate the
// returned slice freely; the store's own state is never exposed.
func (s *Store) PCs() []PC { return s.Snapshot().PCs() }

// IDs returns the stable ids of the current constraints, positionally
// aligned with PCs().
func (s *Store) IDs() []PCID { return s.Snapshot().IDs() }

// Predicates returns the ψ of each constraint, in order.
func (s *Store) Predicates() []*predicate.P { return s.Snapshot().Predicates() }

// Validate checks every constraint against a historical relation instance,
// returning one error per violated constraint.
func (s *Store) Validate(rows []domain.Row) []error { return s.Snapshot().Validate(rows) }

// Disjoint reports whether all predicates are pairwise non-overlapping on
// the schema lattice (the greedy fast-path qualification, Section 4.2).
func (s *Store) Disjoint() bool { return s.Snapshot().Disjoint() }

// TotalKLo returns the sum of frequency lower bounds.
func (s *Store) TotalKLo() int { return s.Snapshot().TotalKLo() }

// MaxAbsValue returns the largest absolute value the named attribute can
// take under any constraint.
func (s *Store) MaxAbsValue(attr string) float64 { return s.Snapshot().MaxAbsValue(attr) }

// Set is the pre-refactor name of the constraint store; prefer Store in new
// code. The alias keeps existing call sites compiling; the semantics differ
// in one way from the old append-only Set: engines bind to a Snapshot at
// construction time, so mutations after NewEngine are only visible through
// Engine.Rebind (or a new engine).
type Set = Store

// NewSet creates an empty constraint store over the schema (the
// pre-refactor name of NewStore; prefer NewStore in new code).
func NewSet(schema *domain.Schema) *Store { return NewStore(schema) }

// Snapshot is an immutable view of a Store at one epoch. It is safe for
// unlimited concurrent readers; all derived analyses (disjointness, bounds,
// decompositions) are pure functions of its contents.
//
// pcvet:immutable — no slice or map reachable from a Snapshot may be
// written after construction (enforced by the snapmut analyzer).
type Snapshot struct {
	store  *Store
	schema *domain.Schema
	pcs    []PC
	ids    []PCID
	epoch  uint64
	nextID PCID

	disjointOnce sync.Once
	disjoint     bool
}

// Store returns the store this snapshot was taken from.
func (sn *Snapshot) Store() *Store { return sn.store }

// Epoch returns the store epoch the snapshot is pinned to.
func (sn *Snapshot) Epoch() uint64 { return sn.epoch }

// NextID returns the id allocator's high-water mark at the snapshot's epoch:
// the largest PCID the store had ever assigned. Checkpoint/restore needs it
// (RestoreStore) so a restored store assigns future ids exactly as the
// captured one would have — removing the constraint with the highest id
// leaves the high-water mark above any live id.
func (sn *Snapshot) NextID() PCID { return sn.nextID }

// Schema returns the snapshot's schema.
func (sn *Snapshot) Schema() *domain.Schema { return sn.schema }

// Len returns the number of constraints.
func (sn *Snapshot) Len() int { return len(sn.pcs) }

// PCs returns a deep copy of the constraints (value boxes included), so the
// snapshot's own view stays immutable no matter what callers do with the
// copy. Predicates are shared: predicate.P is immutable by API.
func (sn *Snapshot) PCs() []PC { return clonePCs(sn.pcs) }

// IDs returns the constraints' stable ids, positionally aligned with PCs().
func (sn *Snapshot) IDs() []PCID { return append([]PCID(nil), sn.ids...) }

// Predicates returns the ψ of each constraint, in order.
func (sn *Snapshot) Predicates() []*predicate.P {
	out := make([]*predicate.P, len(sn.pcs))
	for i, pc := range sn.pcs {
		out[i] = pc.Pred
	}
	return out
}

// Closed reports whether the snapshot is closed over the schema domain. This
// is the stateless reference implementation: it re-solves coverage from
// scratch (the store-level incremental tracker is tested against it).
func (sn *Snapshot) Closed(solver *sat.Solver) bool {
	neg := make([]domain.Box, len(sn.pcs))
	for i, pc := range sn.pcs {
		neg[i] = pc.Pred.Box()
	}
	// Closed iff (domain \ ∪ψᵢ) is empty.
	return !solver.SatBoxes(sn.schema.FullBox(), neg)
}

// Uncovered returns a witness point of the domain not covered by any
// predicate, if the snapshot is not closed.
func (sn *Snapshot) Uncovered(solver *sat.Solver) (domain.Row, bool) {
	neg := make([]domain.Box, len(sn.pcs))
	for i, pc := range sn.pcs {
		neg[i] = pc.Pred.Box()
	}
	boxes := solver.RemainderBoxes(sn.schema.FullBox(), neg)
	if len(boxes) == 0 {
		return nil, false
	}
	return boxes[0].Representative(sn.schema), true
}

// Validate checks every constraint against a historical relation instance,
// returning one error per violated constraint. This implements the paper's
// "constraints are efficiently testable on historical data" property.
func (sn *Snapshot) Validate(rows []domain.Row) []error {
	var errs []error
	for _, pc := range sn.pcs {
		if err := pc.SatisfiedBy(rows); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// Disjoint reports whether all predicates are pairwise non-overlapping on
// the schema lattice. Disjoint snapshots qualify for the greedy fast path
// (Section 4.2 "Faster Algorithm in Special Cases"). Computed lazily, once
// per snapshot: an O(n²·dims) pair loop that allocates nothing and stops at
// the first overlapping pair.
func (sn *Snapshot) Disjoint() bool {
	sn.disjointOnce.Do(func() {
		sn.disjoint = true
		for i := 0; i < len(sn.pcs) && sn.disjoint; i++ {
			for j := i + 1; j < len(sn.pcs); j++ {
				if sn.pcs[i].Pred.Overlaps(sn.pcs[j].Pred) {
					sn.disjoint = false
					break
				}
			}
		}
	})
	return sn.disjoint
}

// TotalKLo returns the sum of frequency lower bounds — the minimum number of
// missing rows any valid instance must contain (only exact for disjoint
// snapshots; for overlapping ones it is an upper bound on that minimum).
func (sn *Snapshot) TotalKLo() int {
	t := 0
	for _, pc := range sn.pcs {
		t += pc.KLo
	}
	return t
}

// MaxAbsValue returns the largest absolute value the named attribute can
// take under any constraint (used to scale AVG binary searches).
func (sn *Snapshot) MaxAbsValue(attr string) float64 {
	i := sn.schema.MustIndex(attr)
	m := 0.0
	for _, pc := range sn.pcs {
		m = math.Max(m, math.Abs(pc.Values[i].Lo))
		m = math.Max(m, math.Abs(pc.Values[i].Hi))
	}
	return m
}
