// Package server implements pcserved's HTTP JSON API over a core.Store and
// its engines: hard aggregate ranges as a network service.
//
// The serving contract mirrors the library's snapshot semantics. Every read
// request (/v1/bound, /v1/batch) is pinned to one Store snapshot: either the
// latest (the default) or, via the request's "epoch" field, an older
// snapshot the server still retains — so an auditor can keep re-asking
// questions of a frozen constraint state while writers mutate the store
// underneath. Mutations (/v1/store/add|remove|replace) return the stable
// PCIDs they touched and the store epoch they produced. Engines come from a
// rebind-on-demand pool that shares one SAT solver lineage, solve-context
// pool, and scoped decomposition cache across all requests and epochs, so a
// mutate→rebound cycle keeps unrelated cached decompositions live.
//
// Tiered precision: reads may carry "precision" ("exact", "auto" or
// "summary") and "max_width" fields. "auto" answers from the store's summary
// tier (core.AttachSummary — sound outer intervals in microseconds, no
// solver work) whenever the loose interval fits the width budget, and
// escalates to the exact path otherwise; every response tags which tier
// produced it. The exact path stays bit-identical to a server without the
// tier.
//
// Production posture: admission control bounds in-flight query requests
// (excess load is rejected with 429 + Retry-After rather than queued without
// bound), with a degrade mode in between: tier-opted requests that would be
// rejected at capacity are answered from the summary tier instead — sound,
// tagged "summary", no solver work — so 429 is the last resort, not the
// overload behavior. /metrics exposes per-endpoint latency quantiles,
// store/cache and tier counters in Prometheus text format, /healthz flips to
// 503 once draining begins, and shutdown drains in-flight bounds (an
// accepted request always completes; see core.BoundBatchCtx for the
// cancellation granularity).
//
// Replication: a server constructed with Config.Replica is a read-only
// follower. Mutations are refused with 503 plus the primary's address; the
// replication driver feeds it durable WAL records through ApplyReplicated,
// which commits them on the same path as recovery — so every applied epoch
// is pinnable, and an epoch-pinned read on the follower is byte-identical
// to the primary's at the same epoch. Reads default to the applied
// frontier; a request carrying "min_epoch" waits (up to the staleness
// budget) for the frontier to reach it, then 412s rather than answer
// stale. A durable primary serves the other side of the link: /v1/wal
// endpoints expose its checkpoints and segments, long-polling at the live
// edge. /healthz gains a role and a replication block; /metrics gains
// pcserved_repl_* gauges.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"pcbound/internal/core"
)

// Wire types. Constraints ride core.PCJSON and queries core.QueryJSON — the
// same encoding used by spec files and pcrange scripts (internal/core's
// json.go), so a spec checked into version control can be POSTed verbatim.

// Num is a float64 that also round-trips the non-finite values JSON numbers
// cannot carry: ±Inf and NaN are encoded as the strings "+Inf", "-Inf" and
// "NaN". Finite values use the standard shortest round-trip encoding, so
// decoding reproduces the exact bits — the serving layer's ranges are
// bit-identical to the engine's, not approximately equal.
type Num float64

// MarshalJSON implements json.Marshaler.
func (n Num) MarshalJSON() ([]byte, error) {
	f := float64(n)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(f):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(f)
}

// appendJSON appends MarshalJSON's bytes without encoding/json: a finite
// value as encoding/json writes a float64 (shortest round-trip digits,
// exponent form below 1e-6 and from 1e21 up).
func (n Num) appendJSON(b []byte) []byte {
	f := float64(n)
	switch {
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7, as encoding/json writes it.
		if k := len(b); k >= 4 && b[k-4] == 'e' && b[k-3] == '-' && b[k-2] == '0' {
			b[k-2] = b[k-1]
			b = b[:k-1]
		}
	}
	return b
}

// UnmarshalJSON implements json.Unmarshaler.
func (n *Num) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*n = Num(math.Inf(1))
		case "-Inf":
			*n = Num(math.Inf(-1))
		case "NaN":
			*n = Num(math.NaN())
		default:
			return fmt.Errorf("server: invalid numeric string %q", s)
		}
		return nil
	}
	var f float64
	if err := json.Unmarshal(b, &f); err != nil {
		return err
	}
	*n = Num(f)
	return nil
}

// RangeJSON serializes a core.Range.
type RangeJSON struct {
	Lo         Num   `json:"lo"`
	Hi         Num   `json:"hi"`
	LoExact    bool  `json:"lo_exact,omitempty"`
	HiExact    bool  `json:"hi_exact,omitempty"`
	MaybeEmpty bool  `json:"maybe_empty,omitempty"`
	Reconciled bool  `json:"reconciled,omitempty"`
	Cells      int   `json:"cells,omitempty"`
	SATChecks  int64 `json:"sat_checks,omitempty"`
}

// RangeToJSON converts an engine range to its wire form.
func RangeToJSON(r core.Range) RangeJSON {
	return RangeJSON{
		Lo:         Num(r.Lo),
		Hi:         Num(r.Hi),
		LoExact:    r.LoExact,
		HiExact:    r.HiExact,
		MaybeEmpty: r.MaybeEmpty,
		Reconciled: r.Reconciled,
		Cells:      r.Cells,
		SATChecks:  r.SATChecks,
	}
}

// appendJSON appends rj's encoding, byte-identical to encoding/json's.
func (rj RangeJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"lo":`...)
	b = rj.Lo.appendJSON(b)
	b = append(b, `,"hi":`...)
	b = rj.Hi.appendJSON(b)
	if rj.LoExact {
		b = append(b, `,"lo_exact":true`...)
	}
	if rj.HiExact {
		b = append(b, `,"hi_exact":true`...)
	}
	if rj.MaybeEmpty {
		b = append(b, `,"maybe_empty":true`...)
	}
	if rj.Reconciled {
		b = append(b, `,"reconciled":true`...)
	}
	if rj.Cells != 0 {
		b = append(b, `,"cells":`...)
		b = strconv.AppendInt(b, int64(rj.Cells), 10)
	}
	if rj.SATChecks != 0 {
		b = append(b, `,"sat_checks":`...)
		b = strconv.AppendInt(b, rj.SATChecks, 10)
	}
	return append(b, '}')
}

// Range converts back to the engine type.
func (rj RangeJSON) Range() core.Range {
	return core.Range{
		Lo:         float64(rj.Lo),
		Hi:         float64(rj.Hi),
		LoExact:    rj.LoExact,
		HiExact:    rj.HiExact,
		MaybeEmpty: rj.MaybeEmpty,
		Reconciled: rj.Reconciled,
		Cells:      rj.Cells,
		SATChecks:  rj.SATChecks,
	}
}

// BoundRequest is the body of POST /v1/bound. A nil Epoch reads the store's
// latest snapshot; a non-nil Epoch pins the read to that retained snapshot
// (410 Gone if the server no longer retains it).
//
// Precision and MaxWidth select the tiered-precision policy. Precision may
// be "exact" (default: the full solver, bit-identical to pre-tiering
// responses), "auto" (answer from the summary tier when its sound-but-loose
// interval is no wider than MaxWidth, escalate to exact otherwise), or
// "summary" (always prefer the summary tier). Setting MaxWidth alone
// implies "auto". Tier-opted requests also opt into degrade-before-shed: at
// capacity the server answers them from the summary tier instead of 429.
// MinEpoch is the read-your-writes gate for replicated reads: the request
// does not run until the serving node's frontier has reached that epoch. On
// a follower the request waits up to the staleness budget for the tail to
// catch up (then 412 Precondition Failed); on a primary — which IS the
// frontier — a min_epoch it has not reached is 412 immediately. A pinned
// Epoch on a follower implies min_epoch of the same value, so pin-and-read
// works against a replica that has not yet applied that epoch.
type BoundRequest struct {
	Query     core.QueryJSON `json:"query"`
	Epoch     *uint64        `json:"epoch,omitempty"`
	MinEpoch  *uint64        `json:"min_epoch,omitempty"`
	Precision string         `json:"precision,omitempty"`
	MaxWidth  *Num           `json:"max_width,omitempty"`
}

// BoundResponse reports the range, the snapshot epoch that produced it, and
// which tier answered: "exact" or "summary" (a sound outer interval).
type BoundResponse struct {
	Range     RangeJSON `json:"range"`
	Epoch     uint64    `json:"epoch"`
	Precision string    `json:"precision"`
}

// appendJSON appends r's encoding, byte-identical to encoding/json's.
func (r BoundResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"range":`...)
	b = r.Range.appendJSON(b)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, `,"precision":`...)
	b = appendString(b, r.Precision)
	return append(b, '}')
}

// BatchRequest is the body of POST /v1/batch. Parallelism limits the worker
// fan-out for this batch: 0 uses the server default, -1 all cores; values
// are clamped to the server's configured ceiling. Precision/MaxWidth apply
// the tiered-precision policy (see BoundRequest) to every query in the
// batch; each query escalates independently.
type BatchRequest struct {
	Queries     []core.QueryJSON `json:"queries"`
	Epoch       *uint64          `json:"epoch,omitempty"`
	MinEpoch    *uint64          `json:"min_epoch,omitempty"`
	Parallelism int              `json:"parallelism,omitempty"`
	Precision   string           `json:"precision,omitempty"`
	MaxWidth    *Num             `json:"max_width,omitempty"`
}

// BatchResponse reports one range per query, in request order. Precisions
// is positionally aligned with Ranges and tags the tier that answered each
// query.
type BatchResponse struct {
	Ranges     []RangeJSON `json:"ranges"`
	Epoch      uint64      `json:"epoch"`
	Precisions []string    `json:"precisions"`
}

// appendJSON appends r's encoding, byte-identical to encoding/json's.
func (r BatchResponse) appendJSON(b []byte) []byte {
	b = append(b, `{"ranges":`...)
	if r.Ranges == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, rj := range r.Ranges {
			if i > 0 {
				b = append(b, ',')
			}
			b = rj.appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, r.Epoch, 10)
	b = append(b, `,"precisions":`...)
	if r.Precisions == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range r.Precisions {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, p)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendString appends s as a JSON string. The precision tags it writes are
// plain identifiers; a string that needs any escape goes through
// encoding/json, so the bytes always match its HTML-escaping output.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			raw, _ := json.Marshal(s)
			return append(b, raw...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// tierSpecOf parses a request's precision/max_width pair into the engine's
// tiering policy. A bare max_width implies "auto"; an explicit "exact"
// ignores the budget.
func tierSpecOf(precision string, maxWidth *Num) (core.TierSpec, error) {
	var spec core.TierSpec
	switch precision {
	case "", "exact":
		spec.Mode = core.TierExact
	case "auto":
		spec.Mode = core.TierAuto
	case "summary":
		spec.Mode = core.TierForceSummary
	default:
		return spec, fmt.Errorf("invalid precision %q (want \"exact\", \"auto\" or \"summary\")", precision)
	}
	if maxWidth != nil {
		w := float64(*maxWidth)
		if math.IsNaN(w) || w < 0 {
			return spec, fmt.Errorf("invalid max_width %v (want a width >= 0)", w)
		}
		spec.MaxWidth = w
		if precision == "" {
			spec.Mode = core.TierAuto
		}
	}
	return spec, nil
}

// AddRequest is the body of POST /v1/store/add.
type AddRequest struct {
	Constraints []core.PCJSON `json:"constraints"`
}

// AddResponse reports the stable ids assigned to the added constraints
// (in request order) and the store epoch the mutation produced.
type AddResponse struct {
	IDs   []uint64 `json:"ids"`
	Epoch uint64   `json:"epoch"`
}

// RemoveRequest is the body of POST /v1/store/remove.
type RemoveRequest struct {
	ID uint64 `json:"id"`
}

// ReplaceRequest is the body of POST /v1/store/replace: the constraint with
// the given stable id is swapped in place (id and position survive).
type ReplaceRequest struct {
	ID         uint64      `json:"id"`
	Constraint core.PCJSON `json:"constraint"`
}

// MutateResponse reports the store epoch a remove/replace produced.
type MutateResponse struct {
	Epoch uint64 `json:"epoch"`
}

// StoreResponse is the body of GET /v1/store: a spec-file-compatible view of
// one snapshot (DecodeSet on Schema+Constraints rebuilds the exact constraint
// multiset) plus the stable ids, positionally aligned with Constraints, and
// the snapshot's epoch.
type StoreResponse struct {
	Schema      []core.AttrJSON `json:"schema"`
	Constraints []core.PCJSON   `json:"constraints"`
	IDs         []uint64        `json:"ids"`
	Epoch       uint64          `json:"epoch"`
	Closed      bool            `json:"closed"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status      string           `json:"status"` // "ok", "recovering", "wedged", "draining" or "replication_failed"
	Role        string           `json:"role"`   // "primary" or "follower"
	Epoch       uint64           `json:"epoch"`
	Constraints int              `json:"constraints"`
	Durability  *DurabilityJSON  `json:"durability,omitempty"`
	Replication *ReplicationJSON `json:"replication,omitempty"`
}

// ReplicationJSON reports a follower's tail progress on /healthz.
type ReplicationJSON struct {
	// Primary is the advertised primary base URL (also returned with
	// rejected mutations).
	Primary string `json:"primary,omitempty"`
	// Source is where the tail reads the log from (directory or URL).
	Source string `json:"source,omitempty"`
	// AppliedEpoch is the follower's frontier: reads serve at this epoch.
	AppliedEpoch uint64 `json:"applied_epoch"`
	// PrimaryEpoch is the primary's frontier as last observed by the tail.
	PrimaryEpoch uint64 `json:"primary_epoch"`
	// LagRecords is PrimaryEpoch - AppliedEpoch (every record is one epoch),
	// clamped at zero; LagSeconds is how long the frontier has been stuck
	// while lagging (0 when caught up).
	LagRecords uint64  `json:"lag_records"`
	LagSeconds float64 `json:"lag_seconds"`
	// AppliedRecords counts records applied since this process started.
	AppliedRecords uint64 `json:"applied_records"`
	// TailRestarts counts transient tail failures the apply loop retried.
	TailRestarts uint64 `json:"tail_restarts"`
	// StaleRejects counts epoch-gated reads that 412ed.
	StaleRejects uint64 `json:"stale_rejects"`
	// Rebootstraps counts in-place recoveries from falling behind
	// truncation: the tail re-bootstrapped from a newer checkpoint and the
	// serving state was swapped without restarting the process.
	Rebootstraps uint64 `json:"rebootstraps"`
	// Error, when set, means replication failed terminally: the follower
	// serves its frozen frontier but will not advance.
	Error string `json:"error,omitempty"`
}

// DurabilityJSON reports WAL and recovery state on /healthz when the server
// runs with a data directory.
type DurabilityJSON struct {
	// Mode is the ack contract: "always" (fsync before ack) or "none".
	Mode string `json:"mode"`
	// DurableEpoch is the highest epoch durable per the mode.
	DurableEpoch uint64 `json:"durable_epoch"`
	// CheckpointEpoch is the checkpoint this process recovered from.
	CheckpointEpoch uint64 `json:"checkpoint_epoch"`
	// RecoveredEpoch is the epoch reached after replaying the log tail.
	RecoveredEpoch uint64 `json:"recovered_epoch"`
	// ReplayedRecords counts log records replayed on top of the checkpoint.
	ReplayedRecords int `json:"replayed_records"`
	// TornTailHealed reports that recovery found (and truncated away) a
	// partial final record — the expected residue of a crash mid-append.
	TornTailHealed bool `json:"torn_tail_healed,omitempty"`
	// SkippedCheckpoints counts corrupt checkpoints recovery fell past.
	SkippedCheckpoints int `json:"skipped_checkpoints,omitempty"`
	// Wedged means a write or fsync failed: mutations are disabled until
	// restart, reads still serve.
	Wedged bool `json:"wedged,omitempty"`
}

// ErrorResponse is the body of every non-2xx response. Primary is set on a
// replica's mutation rejections: the base URL writes should go to.
type ErrorResponse struct {
	Error   string `json:"error"`
	Primary string `json:"primary,omitempty"`
}
