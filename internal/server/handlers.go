package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"pcbound/internal/core"
	"pcbound/internal/sat"
	"pcbound/internal/wal"
)

// Config tunes a Server. The zero value is serviceable.
type Config struct {
	// MaxInflight bounds in-flight query work in weighted units: a single
	// bound weighs 1, a batch weighs its worker fan-out, so the limit caps
	// concurrent solver work rather than request count. Excess requests get
	// 429. <= 0 means 4×GOMAXPROCS — enough to keep every core busy, small
	// enough that overload turns into backpressure instead of memory growth.
	MaxInflight int
	// RetainEpochs caps the snapshot-pinned engines kept for old epochs
	// (<= 0 means DefaultRetainEpochs). The latest engine always counts as
	// one of them.
	RetainEpochs int
	// MaxParallelism caps a batch request's worker fan-out (and is the
	// default when a request leaves Parallelism at 0). <= 0 means
	// GOMAXPROCS.
	MaxParallelism int
	// MaxBatch caps the queries accepted in one /v1/batch request
	// (<= 0 means 4096).
	MaxBatch int
	// Engine configures the engines the pool creates (cache size, MILP
	// options…).
	Engine core.Options
	// Durability, when set, gates every mutation ack on the WAL: the
	// response is written only after the mutation's epoch is durable per the
	// manager's fsync mode. A wedged log (failed write or fsync) turns all
	// further mutations into 503s while reads keep serving.
	Durability *wal.Manager
	// DisableSummary turns off the tiered-precision overlay: requests with
	// precision/max_width fields always escalate to the exact path, and the
	// degrade-before-shed mode is unavailable (saturation always 429s).
	DisableSummary bool
	// Replica, when set, runs this server as a read-only log-shipping
	// follower (see Replica): mutations 503 with a primary hint, reads serve
	// the applied frontier, and the owner feeds ApplyReplicated from a
	// wal.Tailer. Mutually exclusive with Durability in practice — a
	// follower's log lives on the primary.
	Replica *Replica
}

// maxBodyBytes bounds request bodies; a constraint batch some orders of
// magnitude beyond realistic use is a client bug, not a workload.
const maxBodyBytes = 8 << 20

// serving is the swappable half of a Server: the store and everything bound
// to it (engine pool, closure solver, summary tier). Handlers snapshot it
// once per request via Server.serving(), so a follower's re-bootstrap can
// atomically replace the whole bundle while in-flight reads finish against
// the immutable snapshots they already hold.
type serving struct {
	store *core.Store
	pool  *enginePool
	// closure is the solver backing /v1/store closure checks, separate from
	// the engine pool's solver lineage only so closure SAT work never skews
	// the serving-path solver statistics exported at /metrics. (Solvers are
	// safe for concurrent use.)
	closure *sat.Solver
	// tier is the summary overlay every pooled engine shares (nil when
	// Config.DisableSummary).
	tier *core.SummaryOverlay
}

// Server serves the pcserved HTTP API over one Store. Create with New,
// mount via Handler, and call StartDraining before http.Server.Shutdown so
// health checks report the drain.
type Server struct {
	// sv is the current serving state. Swapped only by Rebootstrap (under
	// mutMu); read lock-free by handlers, one load per request.
	sv atomic.Pointer[serving]
	// engineCfg, retain, summaryOn are what newServing needs to rebuild the
	// serving bundle around a re-bootstrapped store.
	engineCfg core.Options
	retain    int
	summaryOn bool

	lim *limiter
	met *metrics
	// mutMu serializes this server's mutations so each response reports
	// exactly the epoch its mutation produced, and so that epoch's engine is
	// registered in the pool before the next mutation can commit — which is
	// what makes the documented mutate → pinned-read chain race-free for
	// HTTP clients. Library-level writers sharing the store bypass this, so
	// pcserved must be the store's only writer. Rebootstrap also swaps sv
	// under it, so a swap never interleaves with a replicated apply.
	mutMu    sync.Mutex
	dur      *wal.Manager // nil when running without durability
	maxPar   int
	maxBatch int
	draining atomic.Bool
	mux      *http.ServeMux
	// tmet counts summary-tier outcomes for /metrics.
	tmet tierMetrics
	// repl is the follower-mode replication state (nil on a primary).
	repl *replState
}

// newServing bundles a store with a fresh engine pool, closure solver, and
// summary tier per the server's configuration.
func (s *Server) newServing(store *core.Store, solver *sat.Solver) *serving {
	opts := s.engineCfg
	var tier *core.SummaryOverlay
	if s.summaryOn {
		// The summary overlay rides Options.Summary into every engine the
		// pool creates, so tiered answers and escalations share one tier per
		// store.
		tier = core.AttachSummary(store)
		opts.Summary = tier
	}
	return &serving{
		store:   store,
		pool:    newEnginePool(store, solver, opts, s.retain),
		closure: sat.New(store.Schema()),
		tier:    tier,
	}
}

// serving returns the current serving state. Handlers call it once and use
// the same snapshot throughout a request: a concurrent re-bootstrap swap
// must never split one request across two stores.
func (s *Server) serving() *serving { return s.sv.Load() }

// Store returns the store currently being served. On a follower this can
// change across a Rebootstrap; callers must not cache it across mutations.
func (s *Server) Store() *core.Store { return s.serving().store }

// New builds a server over the store. The solver seeds the pool's engine
// lineage (nil for a fresh one).
func New(store *core.Store, solver *sat.Solver, cfg Config) *Server {
	maxInflight := cfg.MaxInflight
	if maxInflight <= 0 {
		maxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	maxPar := cfg.MaxParallelism
	if maxPar <= 0 {
		maxPar = runtime.GOMAXPROCS(0)
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 4096
	}
	s := &Server{
		engineCfg: cfg.Engine,
		retain:    cfg.RetainEpochs,
		summaryOn: !cfg.DisableSummary,
		lim:       newLimiter(maxInflight),
		met:       newMetrics(),
		dur:       cfg.Durability,
		maxPar:    maxPar,
		maxBatch:  maxBatch,
	}
	s.sv.Store(s.newServing(store, solver))
	if cfg.Replica != nil {
		s.repl = newReplState(*cfg.Replica, store.Epoch())
	}
	mux := http.NewServeMux()
	// Both query endpoints self-admit after parsing: admission must see the
	// request's tier opt-in to degrade over-capacity load to summary
	// answers instead of shedding it (see handleBound).
	mux.Handle("POST /v1/bound", s.instrument("bound", s.handleBound))
	mux.Handle("POST /v1/batch", s.instrument("batch", s.handleBatch))
	mux.Handle("POST /v1/store/add", s.instrument("store_add", s.handleAdd))
	mux.Handle("POST /v1/store/remove", s.instrument("store_remove", s.handleRemove))
	mux.Handle("POST /v1/store/replace", s.instrument("store_replace", s.handleReplace))
	mux.Handle("GET /v1/store", s.instrument("store_get", s.handleStore))
	mux.Handle("GET /healthz", http.HandlerFunc(s.handleHealth))
	mux.Handle("GET /metrics", http.HandlerFunc(s.handleMetrics))
	if cfg.Durability != nil {
		// Log shipping: followers tail this node's WAL over HTTP. Like
		// healthz/metrics these stay uninstrumented — a long-polled segment
		// fetch parked at the live edge would swamp the latency quantiles.
		mux.Handle("GET /v1/wal", http.HandlerFunc(s.handleWALList))
		mux.Handle("GET /v1/wal/checkpoint/{epoch}", http.HandlerFunc(s.handleWALCheckpoint))
		mux.Handle("GET /v1/wal/segment/{start}", http.HandlerFunc(s.handleWALSegment))
	}
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips /healthz to 503 so load balancers stop routing here
// while http.Server.Shutdown lets in-flight requests finish.
func (s *Server) StartDraining() { s.draining.Store(true) }

// appender is a response that appends its own JSON encoding,
// byte-identical to encoding/json's.
type appender interface{ appendJSON([]byte) []byte }

// writeJSON serializes v with a status code. Read answers (BoundResponse,
// BatchResponse) append their own encoding: no reflection, and no draw on
// encoding/json's shared encode-state pool, where steady read traffic would
// keep alive whatever buffer the largest document the process encoded (a
// GET /v1/store of the whole spec, a WAL checkpoint) grew.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if a, ok := v.(appender); ok {
		_, _ = w.Write(append(a.appendJSON(make([]byte, 0, 512)), '\n'))
		return
	}
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg})
}

// decodeBody parses a JSON request body into v, with a size cap. Returns
// false after writing the 400 (or 413) response.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parsing request body: %v", err))
		return false
	}
	return true
}

// engineFor resolves the engine a read request runs against: the latest
// snapshot by default, a retained pinned one when the request names an
// epoch. Returns nil after writing the 410 response. The caller passes the
// serving snapshot it already loaded: after a follower re-bootstrap the
// fresh pool retains only the new lineage, so pins into the pre-swap
// lineage answer 410 here — never a mixed-lineage result.
func (s *Server) engineFor(w http.ResponseWriter, sv *serving, epoch *uint64) *core.Engine {
	if epoch == nil {
		return sv.pool.Latest()
	}
	e, err := sv.pool.At(*epoch)
	if err != nil {
		writeError(w, http.StatusGone, err.Error())
		return nil
	}
	return e
}

// gateMinEpoch enforces the read-your-writes gate before a read runs (see
// BoundRequest.MinEpoch). On a follower a pinned epoch implies a min_epoch
// of the same value, so a client can mutate on the primary and immediately
// pin-read the result on a replica: the read waits for the tail (up to the
// staleness budget) instead of 410ing on an epoch the replica has not
// applied yet. Requests with no epoch demands — including force-summary
// reads — never enter the gate, which is how summary answers stay available
// while a follower catches up. Returns false after writing the 412.
func (s *Server) gateMinEpoch(w http.ResponseWriter, r *http.Request, minEpoch, pinned *uint64) bool {
	var target uint64
	if minEpoch != nil {
		target = *minEpoch
	}
	if s.repl != nil && pinned != nil && *pinned > target {
		target = *pinned
	}
	if target == 0 {
		return true
	}
	if s.repl == nil {
		// A primary is the frontier: either it has reached the epoch or no
		// amount of waiting here will produce it.
		if cur := s.serving().store.Epoch(); target > cur {
			writeError(w, http.StatusPreconditionFailed,
				fmt.Sprintf("min_epoch %d is ahead of the primary's epoch %d", target, cur))
			return false
		}
		return true
	}
	if err := s.repl.await(r.Context(), target); err != nil {
		s.repl.noteStaleReject()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusPreconditionFailed, err.Error())
		return false
	}
	return true
}

func (s *Server) handleBound(w http.ResponseWriter, r *http.Request) {
	var req BoundRequest
	if !decodeBody(w, r, &req) {
		return
	}
	spec, err := tierSpecOf(req.Precision, req.MaxWidth)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.gateMinEpoch(w, r, req.MinEpoch, req.Epoch) {
		return
	}
	sv := s.serving()
	q, err := core.QueryFromJSON(sv.store.Schema(), req.Query)
	if err != nil {
		// Echo the query back: 400s must be actionable from the client's
		// log alone, not require request/response correlation.
		writeError(w, http.StatusBadRequest, fmt.Sprintf("query %s: %v", req.Query, err))
		return
	}
	e := s.engineFor(w, sv, req.Epoch)
	if e == nil {
		return
	}
	granted, ok := s.lim.tryAcquire(1)
	if !ok {
		// Degrade before shed: a tier-opted request at capacity is answered
		// from the summary tier — sound, tagged, and solver-free, so it
		// costs none of the capacity the limiter is protecting. 429 is the
		// last resort for exact-only requests (or when no summary exists,
		// e.g. a pinned epoch).
		if spec.Mode != core.TierExact {
			if rng, ok := e.BoundSummary(q); ok {
				s.tmet.degraded.Add(1)
				s.tmet.summaryServed.Add(1)
				writeJSON(w, http.StatusOK, BoundResponse{
					Range:     RangeToJSON(rng),
					Epoch:     e.Snapshot().Epoch(),
					Precision: core.PrecisionSummary.String(),
				})
				return
			}
		}
		s.rejectOverCapacity(w)
		return
	}
	defer s.lim.release(granted)
	rng, prec, err := e.BoundTieredCtx(r.Context(), q, spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.tmet.observe(spec, prec, rng)
	writeJSON(w, http.StatusOK, BoundResponse{
		Range:     RangeToJSON(rng),
		Epoch:     e.Snapshot().Epoch(),
		Precision: prec.String(),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "batch has no queries")
		return
	}
	if len(req.Queries) > s.maxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d queries, cap is %d", len(req.Queries), s.maxBatch))
		return
	}
	if req.Parallelism < -1 {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("parallelism must be >= -1, got %d", req.Parallelism))
		return
	}
	spec, err := tierSpecOf(req.Precision, req.MaxWidth)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Gate before parsing: the gate can wait on the replication tail, and a
	// re-bootstrap during that wait swaps the serving state — loading it
	// after the gate keeps the parse schema and the engine on one bundle.
	if !s.gateMinEpoch(w, r, req.MinEpoch, req.Epoch) {
		return
	}
	sv := s.serving()
	queries := make([]core.Query, len(req.Queries))
	for i, qj := range req.Queries {
		q, err := core.QueryFromJSON(sv.store.Schema(), qj)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("query %d (%s): %v", i, qj, err))
			return
		}
		queries[i] = q
	}
	par := req.Parallelism
	switch {
	case par == 0:
		par = s.maxPar
	case par < 0 || par > s.maxPar:
		par = s.maxPar
	}
	if par > len(req.Queries) {
		par = len(req.Queries)
	}
	e := s.engineFor(w, sv, req.Epoch)
	if e == nil {
		return
	}
	// Admission is weighted by the batch's actual worker fan-out, so the
	// limiter bounds concurrent solver work rather than request count — a
	// flood of wide batches sheds load instead of multiplying threads.
	granted, ok := s.lim.tryAcquire(par)
	if !ok {
		// Degrade before shed, batch form: a tier-opted batch at capacity
		// is served if the summary tier can answer every query (a partial
		// batch would silently mix budget-respecting and degraded entries
		// with no way to retry just the degraded half).
		if spec.Mode != core.TierExact {
			if out, ok := s.summaryBatch(e, queries); ok {
				s.tmet.degraded.Add(1)
				s.tmet.summaryServed.Add(int64(len(queries)))
				precisions := make([]string, len(queries))
				for i := range precisions {
					precisions[i] = core.PrecisionSummary.String()
				}
				writeJSON(w, http.StatusOK, BatchResponse{
					Ranges: out, Epoch: e.Snapshot().Epoch(), Precisions: precisions,
				})
				return
			}
		}
		s.rejectOverCapacity(w)
		return
	}
	defer s.lim.release(granted)
	// The request context cancels when the client disconnects: queries not
	// yet started are skipped (there is nobody to read their ranges), while
	// in-flight bounds complete — that, plus http.Server.Shutdown waiting on
	// active handlers, is what makes shutdown drain instead of drop.
	ranges, precs, err := e.BoundBatchTieredCtx(r.Context(), queries, spec, core.BatchOptions{Parallelism: par})
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return // client went away; nothing to report
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	out := make([]RangeJSON, len(ranges))
	precisions := make([]string, len(ranges))
	for i, rng := range ranges {
		out[i] = RangeToJSON(rng)
		precisions[i] = precs[i].String()
		s.tmet.observe(spec, precs[i], rng)
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		Ranges: out, Epoch: e.Snapshot().Epoch(), Precisions: precisions,
	})
}

// summaryBatch answers every query from the summary tier, or reports it
// cannot (ok=false leaves admission control to shed the batch).
func (s *Server) summaryBatch(e *core.Engine, queries []core.Query) ([]RangeJSON, bool) {
	out := make([]RangeJSON, len(queries))
	for i, q := range queries {
		rng, ok := e.BoundSummary(q)
		if !ok {
			return nil, false
		}
		out[i] = RangeToJSON(rng)
	}
	return out, true
}

// mutationAllowed rejects mutations up front while the WAL is wedged: once
// a write or fsync has failed, disk can no longer be trusted to record what
// we acknowledge, so the store is read-only until an operator restarts the
// process (recovery reopens from what is actually durable).
func (s *Server) mutationAllowed(w http.ResponseWriter) bool {
	if s.repl != nil {
		// Followers are read-only: the log flows one way, so a local write
		// would fork history the tail can never reconcile. The hint tells
		// clients where writes go, and Retry-After tells retrying clients
		// (and the router) this is a routing error, not a transient fault —
		// redirect now, or back off briefly if no primary is reachable.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error:   "read-only replica: mutations must go to the primary",
			Primary: s.repl.cfg.Primary,
		})
		return false
	}
	if s.dur == nil {
		return true
	}
	if err := s.dur.Err(); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("durability wedged, mutations disabled: %v", err))
		return false
	}
	return true
}

// ackDurable holds a mutation's 200 until its epoch is durable. It runs
// after mutMu is released — group commit batches the fsync across every
// mutation that landed meanwhile, so holding the mutation lock here would
// serialize exactly the work the window exists to coalesce. On failure the
// client gets a 503 and must treat the mutation as not applied: the wedge
// blocks all later mutations, and restart-recovery replays only the log.
func (s *Server) ackDurable(w http.ResponseWriter, epoch uint64) bool {
	if s.dur == nil {
		return true
	}
	if err := s.dur.WaitDurable(epoch); err != nil {
		writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("mutation not durable: %v", err))
		return false
	}
	return true
}

func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req AddRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.mutationAllowed(w) {
		return
	}
	if len(req.Constraints) == 0 {
		writeError(w, http.StatusBadRequest, "add has no constraints")
		return
	}
	sv := s.serving()
	pcs := make([]core.PC, len(req.Constraints))
	for i, cj := range req.Constraints {
		pc, err := core.PCFromJSON(sv.store.Schema(), cj)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("constraint %d: %v", i, err))
			return
		}
		pcs[i] = pc
	}
	s.mutMu.Lock()
	ids, err := sv.store.AddPCs(pcs...)
	if err != nil {
		s.mutMu.Unlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	epoch := s.commitEpochLocked()
	s.mutMu.Unlock()
	if !s.ackDurable(w, epoch) {
		return
	}
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	writeJSON(w, http.StatusOK, AddResponse{IDs: out, Epoch: epoch})
}

// commitEpochLocked finishes a mutation made under mutMu: it binds (and
// thereby retains) an engine at the store's new frontier and returns that
// epoch. Because mutMu is still held, no later HTTP mutation can have
// advanced the store, so the returned epoch is exactly the one the caller's
// mutation produced — and it is pinnable from this moment on.
func (s *Server) commitEpochLocked() uint64 {
	// mutMu is held, and Rebootstrap swaps sv only under mutMu, so this load
	// observes the same serving state the caller just mutated.
	return s.serving().pool.Latest().Snapshot().Epoch()
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var req RemoveRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if !s.mutationAllowed(w) {
		return
	}
	s.mutMu.Lock()
	if err := s.serving().store.Remove(core.PCID(req.ID)); err != nil {
		s.mutMu.Unlock()
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	epoch := s.commitEpochLocked()
	s.mutMu.Unlock()
	if !s.ackDurable(w, epoch) {
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Epoch: epoch})
}

func (s *Server) handleReplace(w http.ResponseWriter, r *http.Request) {
	var req ReplaceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	pc, err := core.PCFromJSON(s.serving().store.Schema(), req.Constraint)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !s.mutationAllowed(w) {
		return
	}
	// The constraint decoded against the store's own schema, so a Replace
	// failure can only be a missing id. (Only a primary reaches the mutation
	// below, and a primary's serving state is never swapped, so the schema
	// load above and the store here cannot disagree.)
	s.mutMu.Lock()
	if err := s.serving().store.Replace(core.PCID(req.ID), pc); err != nil {
		s.mutMu.Unlock()
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	epoch := s.commitEpochLocked()
	s.mutMu.Unlock()
	if !s.ackDurable(w, epoch) {
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Epoch: epoch})
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	// mutMu keeps the snapshot and the closure answer at the same epoch:
	// pcserved is the store's only writer (see mutMu), so with mutations
	// excluded, Store.Closed — incremental, far cheaper than a per-request
	// stateless re-solve — describes exactly the snapshot taken here.
	s.mutMu.Lock()
	sv := s.serving()
	snap := sv.store.Snapshot()
	closed := sv.store.Closed(sv.closure)
	s.mutMu.Unlock()
	spec := snap.Spec()
	ids := snap.IDs()
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	writeJSON(w, http.StatusOK, StoreResponse{
		Schema:      spec.Schema,
		Constraints: spec.Constraints,
		IDs:         out,
		Epoch:       snap.Epoch(),
		Closed:      closed,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	sv := s.serving()
	resp := HealthResponse{Status: "ok", Role: "primary", Epoch: sv.store.Epoch(), Constraints: sv.store.Len()}
	code := http.StatusOK
	if s.repl != nil {
		resp.Role = "follower"
		resp.Replication = s.replicationJSON()
		if resp.Replication.Error != "" {
			// The frozen frontier still serves, but balancers should stop
			// preferring a replica that will never catch up again.
			resp.Status = "replication_failed"
			code = http.StatusServiceUnavailable
		}
	}
	if s.dur != nil {
		info := s.dur.Info()
		met := s.dur.Metrics()
		resp.Durability = &DurabilityJSON{
			Mode:               s.dur.Mode().String(),
			DurableEpoch:       met.DurableEpoch,
			CheckpointEpoch:    info.CheckpointEpoch,
			RecoveredEpoch:     info.Epoch,
			ReplayedRecords:    info.Replayed,
			TornTailHealed:     info.TornTail,
			SkippedCheckpoints: info.SkippedCheckpoints,
			Wedged:             met.Wedged,
		}
		if met.Wedged {
			resp.Status = "wedged"
			code = http.StatusServiceUnavailable
		}
	}
	if s.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	sv := s.serving()
	e := sv.pool.Current()
	cs := e.CacheStats()
	ss := e.Solver().Stats()
	fmt.Fprintf(w, "pcserved_store_epoch %d\n", sv.store.Epoch())
	fmt.Fprintf(w, "pcserved_store_constraints %d\n", sv.store.Len())
	fmt.Fprintf(w, "pcserved_retained_epochs %d\n", len(sv.pool.Epochs()))
	fmt.Fprintf(w, "pcserved_inflight_queries %d\n", s.lim.inflight())
	fmt.Fprintf(w, "pcserved_inflight_capacity %d\n", s.lim.capacity())
	fmt.Fprintf(w, "pcserved_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "pcserved_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "pcserved_cache_retained_total %d\n", cs.Retained)
	fmt.Fprintf(w, "pcserved_cache_invalidated_total %d\n", cs.Invalidated)
	// The cellcache names count lookups in the cached decompositions' solve
	// memo.
	fmt.Fprintf(w, "pcserved_cellcache_hits_total %d\n", cs.MemoHits)
	fmt.Fprintf(w, "pcserved_cellcache_misses_total %d\n", cs.MemoMisses)
	if sch := e.Scheduler(); sch != nil {
		// The scheduler is shared by every engine in the pool (and any other
		// engine in the process pointed at it): one queue, so queue depth is
		// the live intra-query backlog across all in-flight requests.
		st := sch.Stats()
		fmt.Fprintf(w, "pcserved_sched_workers %d\n", st.Workers)
		fmt.Fprintf(w, "pcserved_sched_queue_depth %d\n", st.QueueDepth)
		fmt.Fprintf(w, "pcserved_sched_queue_depth_max %d\n", st.MaxQueueDepth)
		fmt.Fprintf(w, "pcserved_sched_tasks_total %d\n", st.Executed)
		fmt.Fprintf(w, "pcserved_sched_caller_tasks_total %d\n", st.CallerRan)
	}
	fmt.Fprintf(w, "pcserved_sat_checks_total %d\n", ss.Checks)
	fmt.Fprintf(w, "pcserved_sat_nodes_total %d\n", ss.Nodes)
	fmt.Fprintf(w, "pcserved_tier_summary_served_total %d\n", s.tmet.summaryServed.Load())
	fmt.Fprintf(w, "pcserved_tier_exact_served_total %d\n", s.tmet.exactServed.Load())
	fmt.Fprintf(w, "pcserved_tier_escalated_total %d\n", s.tmet.escalated.Load())
	fmt.Fprintf(w, "pcserved_tier_escalated_cells_total %d\n", s.tmet.escalatedCells.Load())
	fmt.Fprintf(w, "pcserved_tier_degraded_total %d\n", s.tmet.degraded.Load())
	if sv.tier != nil {
		ts := sv.tier.Stats()
		disjoint := 0
		if ts.Disjoint {
			disjoint = 1
		}
		fmt.Fprintf(w, "pcserved_tier_summary_entries %d\n", ts.Entries)
		fmt.Fprintf(w, "pcserved_tier_summary_epoch %d\n", ts.Epoch)
		fmt.Fprintf(w, "pcserved_tier_summary_mutations_total %d\n", ts.Mutations)
		fmt.Fprintf(w, "pcserved_tier_summary_overlap_pairs %d\n", ts.OverlapPairs)
		fmt.Fprintf(w, "pcserved_tier_summary_disjoint %d\n", disjoint)
		fmt.Fprintf(w, "pcserved_tier_summary_evals_total %d\n", ts.Evals)
		fmt.Fprintf(w, "pcserved_tier_summary_sketch_evals_total %d\n", ts.SketchEvals)
	}
	if s.repl != nil {
		rj := s.replicationJSON()
		wedged := 0
		if rj.Error != "" {
			wedged = 1
		}
		fmt.Fprintf(w, "pcserved_repl_applied_epoch %d\n", rj.AppliedEpoch)
		fmt.Fprintf(w, "pcserved_repl_primary_epoch %d\n", rj.PrimaryEpoch)
		fmt.Fprintf(w, "pcserved_repl_lag_records %d\n", rj.LagRecords)
		fmt.Fprintf(w, "pcserved_repl_lag_seconds %g\n", rj.LagSeconds)
		fmt.Fprintf(w, "pcserved_repl_applied_records_total %d\n", rj.AppliedRecords)
		fmt.Fprintf(w, "pcserved_repl_tail_restarts_total %d\n", rj.TailRestarts)
		fmt.Fprintf(w, "pcserved_repl_stale_rejects_total %d\n", rj.StaleRejects)
		fmt.Fprintf(w, "pcserved_repl_rebootstraps_total %d\n", rj.Rebootstraps)
		fmt.Fprintf(w, "pcserved_repl_wedged %d\n", wedged)
	}
	if s.dur != nil {
		wm := s.dur.Metrics()
		fmt.Fprintf(w, "wal_appends_total %d\n", wm.Appends)
		fmt.Fprintf(w, "wal_flushes_total %d\n", wm.Flushes)
		fmt.Fprintf(w, "wal_fsyncs_total %d\n", wm.Fsyncs)
		fmt.Fprintf(w, "wal_rotations_total %d\n", wm.Rotations)
		fmt.Fprintf(w, "wal_bytes_written_total %d\n", wm.BytesWritten)
		fmt.Fprintf(w, "wal_checkpoints_total %d\n", wm.Checkpoints)
		fmt.Fprintf(w, "wal_checkpoint_failures_total %d\n", wm.CheckpointFailures)
		fmt.Fprintf(w, "wal_durable_epoch %d\n", wm.DurableEpoch)
		fmt.Fprintf(w, "wal_segment_start_epoch %d\n", wm.SegmentStart)
		fmt.Fprintf(w, "wal_last_checkpoint_epoch %d\n", wm.LastCheckpointEpoch)
		fmt.Fprintf(w, "wal_replayed_records_total %d\n", wm.Replayed)
		fmt.Fprintf(w, "wal_leases_active %d\n", wm.LeasesActive)
		fmt.Fprintf(w, "wal_lease_min_acked_epoch %d\n", wm.LeaseMinAcked)
		fmt.Fprintf(w, "wal_lease_expirations_total %d\n", wm.LeaseExpirations)
		fmt.Fprintf(w, "wal_held_segments %d\n", wm.HeldSegments)
		fmt.Fprintf(w, "wal_truncations_held_total %d\n", wm.TruncationsHeld)
		wedged := 0
		if wm.Wedged {
			wedged = 1
		}
		fmt.Fprintf(w, "wal_wedged %d\n", wedged)
	}
	s.met.writeTo(w)
}
