// Package trace holds the traced run's direct calls into the program: the
// core/wal calls pcserved's handlers make (pass 3) and the cells/summary
// calls under them (pass 4). It is kept apart from the end-to-end runner in
// package bench so that a change to these internal entry points can break
// at most the traced run, never the end-to-end numbers.
package trace

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pcbound/internal/core"
	"pcbound/internal/domain"
	"pcbound/internal/sat"
	"pcbound/internal/server"
	"pcbound/internal/wal"
	"pcbound/perfbench/bench"
)

// retain mirrors the server's default engine retention.
const retain = server.DefaultRetainEpochs

// pool is a Rebind lineage of engines like pcserved's engine pool: the
// latest engine is rebound on demand and older epochs stay pinnable.
type pool struct {
	latest  *core.Engine
	byEpoch map[uint64]*core.Engine
	order   []uint64
}

func newPool(e *core.Engine) *pool {
	p := &pool{latest: e, byEpoch: map[uint64]*core.Engine{}}
	p.register(e)
	return p
}

func (p *pool) register(e *core.Engine) {
	ep := e.Snapshot().Epoch()
	if _, ok := p.byEpoch[ep]; ok {
		return
	}
	p.byEpoch[ep] = e
	p.order = append(p.order, ep)
	for len(p.order) > retain {
		delete(p.byEpoch, p.order[0])
		p.order = p.order[1:]
	}
}

func (p *pool) rollForward() *core.Engine {
	if e := p.latest.Rebind(); e != p.latest {
		p.latest = e
		p.register(e)
	}
	return p.latest
}

func (p *pool) at(epoch uint64) (*core.Engine, error) {
	p.rollForward()
	if e, ok := p.byEpoch[epoch]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("epoch %d not retained", epoch)
}

// decoded is one op in engine form, decoded before the clock starts (decode
// is part of the server's self time, not the core's).
type decoded struct {
	queries []core.Query
	tier    bool
	spec    core.TierSpec
	pc      core.PC
	id      uint64
}

func decode(schema *domain.Schema, ops []bench.Op) ([]decoded, error) {
	out := make([]decoded, len(ops))
	for i := range ops {
		op := &ops[i]
		req, err := op.Decode()
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		out[i].tier, out[i].id = req.Tier, req.ID
		if req.Tier {
			out[i].spec = core.TierSpec{Mode: core.TierAuto, MaxWidth: req.MaxWidth}
		}
		for _, qj := range req.Queries {
			q, err := core.QueryFromJSON(schema, qj)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			out[i].queries = append(out[i].queries, q)
		}
		if op.Kind == bench.Add || op.Kind == bench.Replace {
			pc, err := core.PCFromJSON(schema, req.PC)
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			out[i].pc = pc
		}
	}
	return out, nil
}

// CoreOptions vary pass 3.
type CoreOptions struct {
	// BatchParallelism overrides a batch's worker fan-out (0 = the
	// server's default, GOMAXPROCS clamped to the batch size).
	BatchParallelism int
	// NoSummary leaves the summary overlay off, so commits skip its
	// maintenance.
	NoSummary bool
}

// CorePass is pass 3's record: per-op spans and answers.
type CorePass struct {
	// Lat is each op's span; Commit and Wait split a mutation's into the
	// store commit (with its hooks and the engine rebind) and
	// Manager.WaitDurable.
	Lat, Commit, Wait []time.Duration
	// Start is each op's start since the pass began.
	Start []time.Duration
	// Misses counts each op's decomposition-cache misses.
	Misses []int64
	// Ranges, Precs and Epochs are the answers, in wire form.
	Ranges [][]server.RangeJSON
	Precs  [][]string
	Epochs []uint64
	// Alloc is the bytes allocated during the timed loop.
	Alloc uint64
	Wall  time.Duration
	// Disjoint reports whether the boot store takes the greedy fast path.
	Disjoint bool
	// Tier marks the tier-opted reads.
	Tier []bool
}

// coreStack is the engine-level stand-in for one booted server.
type coreStack struct {
	store *core.Store
	dur   *wal.Manager
	pool  *pool
	adds  []core.PCID
	epoch uint64
}

func bootCore(in *bench.Inputs, walDir string, opts CoreOptions, durable bool) (*coreStack, error) {
	cs := &coreStack{}
	switch {
	case !in.Durable():
		st, _, err := core.DecodeSet(in.Spec)
		if err != nil {
			return nil, err
		}
		cs.store = st
	case durable:
		dur, err := wal.Open(wal.Options{Dir: walDir, Mode: wal.SyncAlways, Window: bench.WALWindow, CheckpointEvery: bench.CheckpointEvery})
		if err != nil {
			return nil, err
		}
		cs.dur, cs.store = dur, dur.Store()
	default:
		st, _, err := wal.Recover(in.Template, nil)
		if err != nil {
			return nil, err
		}
		cs.store = st
	}
	eopts := core.Options{}
	if !opts.NoSummary {
		eopts.Summary = core.AttachSummary(cs.store)
	}
	cs.pool = newPool(core.NewEngine(cs.store, sat.New(cs.store.Schema()), eopts))
	return cs, nil
}

func (cs *coreStack) close() error {
	if cs.dur != nil {
		return cs.dur.Close()
	}
	return nil
}

// mutate applies one mutation the way the handler does: the store change,
// then binding the engine at the new frontier (which is what makes the
// epoch pinnable). It returns the epoch.
func (cs *coreStack) mutate(op *bench.Op, d *decoded) (uint64, error) {
	var err error
	switch op.Kind {
	case bench.Add:
		var ids []core.PCID
		if ids, err = cs.store.AddPCs(d.pc); err == nil {
			cs.adds = append(cs.adds, ids...)
		}
	case bench.Replace:
		err = cs.store.Replace(core.PCID(d.id), d.pc)
	case bench.Remove:
		if len(cs.adds) == 0 {
			return 0, fmt.Errorf("remove with no outstanding add")
		}
		err = cs.store.Remove(cs.adds[0])
		cs.adds = cs.adds[1:]
	}
	if err != nil {
		return 0, err
	}
	cs.epoch = cs.pool.rollForward().Snapshot().Epoch()
	return cs.epoch, nil
}

// read answers one read op.
func (cs *coreStack) read(ctx context.Context, op *bench.Op, d *decoded, batchPar int) ([]core.Range, []core.Precision, uint64, error) {
	var e *core.Engine
	if op.Pin {
		var err error
		if e, err = cs.pool.at(cs.epoch); err != nil {
			return nil, nil, 0, err
		}
	} else {
		e = cs.pool.rollForward()
	}
	ep := e.Snapshot().Epoch()
	if op.Kind == bench.Bound {
		r, p, err := e.BoundTieredCtx(ctx, d.queries[0], d.spec)
		return []core.Range{r}, []core.Precision{p}, ep, err
	}
	par := batchPar
	if par <= 0 {
		par = min(runtime.GOMAXPROCS(0), len(d.queries))
	}
	rs, ps, err := e.BoundBatchTieredCtx(ctx, d.queries, d.spec, core.BatchOptions{Parallelism: par})
	return rs, ps, ep, err
}

// RunCore replays the warm-up and the ops as the direct core/wal calls
// pcserved's handlers make, from a fresh boot (walDir is a fresh copy of a
// durable workload's template), and records each op's span.
func RunCore(in *bench.Inputs, walDir string, ops []bench.Op, opts CoreOptions) (*CorePass, error) {
	cs, err := bootCore(in, walDir, opts, true)
	if err != nil {
		return nil, err
	}
	// The pass's log is a scratch copy: failing to close it cannot change a
	// measurement.
	defer cs.close()
	ctx := context.Background()
	warm, err := decode(cs.store.Schema(), in.Warm)
	if err != nil {
		return nil, err
	}
	for i := range in.Warm {
		if err := cs.step(ctx, &in.Warm[i], &warm[i], opts.BatchParallelism); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	cs.adds = nil
	dec, err := decode(cs.store.Schema(), ops)
	if err != nil {
		return nil, err
	}
	n := len(ops)
	p := &CorePass{
		Lat: make([]time.Duration, n), Commit: make([]time.Duration, n), Wait: make([]time.Duration, n),
		Start: make([]time.Duration, n), Misses: make([]int64, n),
		Ranges: make([][]server.RangeJSON, n), Precs: make([][]string, n), Epochs: make([]uint64, n),
		Disjoint: cs.store.Snapshot().Disjoint(), Tier: make([]bool, n),
	}
	for i := range dec {
		p.Tier[i] = dec[i].tier
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := range ops {
		op, d := &ops[i], &dec[i]
		miss0 := cs.pool.latest.CacheStats().Misses
		t0 := time.Now()
		if op.Kind.Read() {
			rs, ps, ep, err := cs.read(ctx, op, d, opts.BatchParallelism)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			p.Lat[i] = t1.Sub(t0)
			p.Epochs[i] = ep
			for k := range rs {
				p.Ranges[i] = append(p.Ranges[i], server.RangeToJSON(rs[k]))
				p.Precs[i] = append(p.Precs[i], ps[k].String())
			}
		} else {
			ep, err := cs.mutate(op, d)
			t1 := time.Now()
			if err == nil && cs.dur != nil {
				err = cs.dur.WaitDurable(ep)
			}
			t2 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			p.Commit[i], p.Wait[i], p.Lat[i] = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)
			p.Epochs[i] = ep
		}
		p.Start[i] = t0.Sub(start)
		p.Misses[i] = cs.pool.latest.CacheStats().Misses - miss0
	}
	p.Wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	p.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return p, nil
}

// step runs one op untimed (warm-up).
func (cs *coreStack) step(ctx context.Context, op *bench.Op, d *decoded, batchPar int) error {
	if op.Kind.Read() {
		_, _, _, err := cs.read(ctx, op, d, batchPar)
		return err
	}
	ep, err := cs.mutate(op, d)
	if err == nil && cs.dur != nil {
		err = cs.dur.WaitDurable(ep)
	}
	return err
}
