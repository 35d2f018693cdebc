package server

import (
	"errors"
	"fmt"
	"sync"

	"pcbound/internal/core"
	"pcbound/internal/sat"
)

// ErrEpochNotRetained is returned (wrapped with the offending epoch) when a
// request pins a snapshot epoch the pool no longer — or never — retained.
// The store keeps no history of its own: the epochs servable for pinned
// reads are ones at which an engine was bound — every served read and every
// HTTP mutation (see Server.commitEpochLocked) binds one — up to the pool's
// retention cap. Handlers map it to 410 Gone.
var ErrEpochNotRetained = errors.New("snapshot epoch not retained")

// DefaultRetainEpochs is the engine retention cap used when
// Config.RetainEpochs is zero: the latest engine plus seven older
// snapshot-pinned ones.
const DefaultRetainEpochs = 8

// enginePool hands out engines bound to store snapshots, rebinding on demand
// rather than on mutation: the first read after a mutation pays the (cheap,
// scoped-invalidation) Rebind, and an idle store costs nothing. All engines
// in the pool are one Rebind lineage, so they share the SAT solver, the
// solve-context pool, and the decomposition cache — a snapshot-pinned reader
// and the frontier serve from the same cache without perturbing each other
// (see epochCache's per-key epoch intervals in internal/core).
//
// Older engines are retained by epoch, capped at retain entries, so clients
// can keep querying the snapshot a previous response reported. Eviction just
// drops the pool's reference: requests already holding the engine finish
// unaffected (snapshots are immutable), later pins get ErrEpochNotRetained.
type enginePool struct {
	mu      sync.Mutex
	latest  *core.Engine            // guarded by mu
	byEpoch map[uint64]*core.Engine // guarded by mu
	order   []uint64                // guarded by mu; retained epochs, oldest first
	retain  int
}

func newEnginePool(store *core.Store, solver *sat.Solver, opts core.Options, retain int) *enginePool {
	if retain <= 0 {
		retain = DefaultRetainEpochs
	}
	p := &enginePool{byEpoch: make(map[uint64]*core.Engine), retain: retain}
	p.latest = core.NewEngine(store, solver, opts)
	p.registerLocked(p.latest)
	return p
}

// Latest returns an engine bound to the store's current snapshot, rebinding
// (and retaining the new epoch) if the store moved since the last call.
func (p *enginePool) Latest() *core.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rollForwardLocked()
}

// At returns the retained engine pinned to the given epoch. It first rolls
// the frontier forward so "pin to the epoch my mutation just returned" works
// even when no unpinned read has happened in between.
func (p *enginePool) At(epoch uint64) (*core.Engine, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rollForwardLocked()
	if e, ok := p.byEpoch[epoch]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("%w: epoch %d (retained: %v)", ErrEpochNotRetained, epoch, p.order)
}

// Current returns the most recently bound engine without rolling forward
// (for metrics: reading counters must not itself take snapshots).
func (p *enginePool) Current() *core.Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.latest
}

// Epochs returns the retained epochs, oldest first.
func (p *enginePool) Epochs() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]uint64(nil), p.order...)
}

func (p *enginePool) rollForwardLocked() *core.Engine {
	e := p.latest.Rebind()
	if e != p.latest {
		p.latest = e
		p.registerLocked(e)
	}
	return e
}

func (p *enginePool) registerLocked(e *core.Engine) {
	epoch := e.Snapshot().Epoch()
	if _, ok := p.byEpoch[epoch]; ok {
		return
	}
	p.byEpoch[epoch] = e
	p.order = append(p.order, epoch)
	for len(p.order) > p.retain {
		delete(p.byEpoch, p.order[0])
		p.order = p.order[1:]
	}
}
