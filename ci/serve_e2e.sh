#!/usr/bin/env bash
# serve_e2e.sh — the end-to-end serving gauntlet CI runs (and developers can
# run locally: `bash ci/serve_e2e.sh`). It builds pcserved with the race
# detector, boots it on the sample spec, asserts the snapshot/epoch serving
# semantics with curl, hammers it with pcload (closed-loop bound/batch/mutate
# mix plus a verification phase that checks bit-identity against a local
# engine and summary-tier responses against the exact range), asserts
# degrade-before-shed on a saturated single-slot instance (tier-opted reads
# are answered from the summary tier with 200 + precision "summary"; exact
# reads still shed with 429), and finishes with a graceful-shutdown drain of
# an in-flight batch.
#
# Any non-2xx response (other than pcload-accounted 429 backpressure), any
# mismatched range, or a dropped in-flight request fails the script.
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
# shellcheck source=ci/lib.sh
source ci/lib.sh

ADDR="127.0.0.1:${PCSERVED_PORT:-18091}"
BASE="http://$ADDR"
SPEC=cmd/pcserved/testdata/sample_spec.json
LOG=pcserved-e2e.log

e2e_require jq curl

echo "== build (pcserved under -race, pcload plain)"
e2e_build -race pcserved
e2e_build pcload pcrange

echo "== boot pcserved on $ADDR"
spawn_pcserved "$LOG" -addr "$ADDR" -spec "$SPEC"
SERVER_PID=$SPAWNED_PID
wait_healthy "$BASE" "$SERVER_PID" "$LOG"

echo "== serving semantics: bound -> mutate -> rebound sees new epoch, pinned snapshot does not"
Q='{"query":{"agg":"SUM","attr":"price","where":{"utc":[6,14]}}}'
R0=$(post "$BASE" /v1/bound "$Q")
E0=$(jq -r .epoch <<<"$R0")

# Cross-check the served range against a direct engine bound on the same
# spec via pcrange. pcrange prints %g (6 significant digits), so this check
# uses a 1e-6 relative tolerance; the *bitwise* identity check against a
# direct Engine.Bound runs inside `pcload -verify` below, over the full
# wire encoding.
SERVED_RANGE=$(jq -c '[.range.lo, .range.hi]' <<<"$R0")
DIRECT_RANGE=$("$BIN/pcrange" -spec "$SPEC" -agg SUM -attr price -where "utc:6:14" | sed -n 's/^SUM range: \(\[.*\]\)$/\1/p')
[[ -n "$DIRECT_RANGE" ]] || { echo "could not parse pcrange output" >&2; exit 1; }
jq -ne --argjson a "$SERVED_RANGE" --argjson b "$DIRECT_RANGE" '
  def abs: if . < 0 then -. else . end;
  [0,1] | all(. as $i |
    (($a[$i] - $b[$i]) | abs) <= 1e-6 * ([($a[$i]|abs), ($b[$i]|abs), 1] | max))' >/dev/null \
  || { echo "served range $SERVED_RANGE != direct engine range $DIRECT_RANGE" >&2; exit 1; }
echo "   bound at epoch $E0: $SERVED_RANGE (matches direct engine)"

ADD=$(post "$BASE" /v1/store/add '{"constraints":[{"name":"surge","predicate":{"utc":[7,10]},"values":{"price":[100,400]},"klo":2,"khi":6}]}')
E1=$(jq -r .epoch <<<"$ADD")
ID=$(jq -r '.ids[0]' <<<"$ADD")
[[ "$E1" -gt "$E0" ]] || { echo "mutation did not advance the epoch ($E0 -> $E1)" >&2; exit 1; }

R1=$(post "$BASE" /v1/bound "$Q")
[[ "$(jq -r .epoch <<<"$R1")" == "$E1" ]] || { echo "rebound did not see epoch $E1: $R1" >&2; exit 1; }
jq -e --argjson r0 "$(jq .range <<<"$R0")" '.range != $r0' <<<"$R1" >/dev/null \
  || { echo "rebound range identical despite new constraint: $R1" >&2; exit 1; }

RP=$(post "$BASE" /v1/bound "$(jq -c --argjson e "$E0" '. + {epoch: $e}' <<<"$Q")")
[[ "$(jq -r .epoch <<<"$RP")" == "$E0" ]] || { echo "pinned read not at epoch $E0: $RP" >&2; exit 1; }
jq -e --argjson r0 "$(jq .range <<<"$R0")" '.range == $r0' <<<"$RP" >/dev/null \
  || { echo "pinned range differs from original: $RP vs $R0" >&2; exit 1; }
echo "   mutate -> epoch $E1, rebound moved, pinned read at $E0 bit-identical"

post "$BASE" /v1/store/remove "{\"id\":$ID}" >/dev/null

echo "== pcload gauntlet (verify phase + concurrent bound/batch/mutate)"
"$BIN/pcload" -addr "$BASE" -quick

echo "== pcload gauntlet (skewed, tier-opted: auto precision under a width budget)"
"$BIN/pcload" -addr "$BASE" -quick -verify 0 -skew 1.2 -precision auto -max-width 250

echo "== error surface"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"query":{"agg":"MEDIAN"}}' "$BASE/v1/bound")
[[ "$CODE" == 400 ]] || { echo "bad aggregate returned $CODE, want 400" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"query":{"agg":"COUNT"},"epoch":999999}' "$BASE/v1/bound")
[[ "$CODE" == 410 ]] || { echo "unretained epoch returned $CODE, want 410" >&2; exit 1; }

echo "== metrics surface"
METRICS=$(curl -fsS "$BASE/metrics")
for metric in pcserved_store_epoch pcserved_cache_hits_total 'pcserved_requests_total{endpoint="bound",code="200"}' 'pcserved_request_seconds{endpoint="batch",quantile="0.99"}'; do
  grep -qF "$metric" <<<"$METRICS" || { echo "metrics missing $metric" >&2; exit 1; }
done

echo "== degrade-before-shed: saturation answers tier-opted reads from the summary tier"
# A second instance with a single admission slot, occupied by a long batch in
# the background, makes saturation deterministic: while the batch holds the
# slot, a width-budgeted bound must come back 200 + precision "summary" (no
# solver work, sound outer interval) and an exact-only bound must 429.
SAT_ADDR="127.0.0.1:$(( ${PCSERVED_PORT:-18091} + 1 ))"
SAT_BASE="http://$SAT_ADDR"
SAT_LOG=pcserved-e2e-sat.log
spawn_pcserved "$SAT_LOG" -addr "$SAT_ADDR" -spec "$SPEC" -max-inflight 1
SAT_PID=$SPAWNED_PID
wait_healthy "$SAT_BASE" "$SAT_PID" "$SAT_LOG"

# The slot-holding batch races the probes (a warm cache can finish it in
# milliseconds), so the probe pair retries with a fresh batch until one
# attempt observes true saturation. pcserved_tier_degraded_total is the
# ground truth that the summary answer came from the degrade path, not from
# a normally admitted auto-tier request.
# Every query gets its own price window so neither the decomposition cache
# nor its solve memo can collapse the batch to microseconds — the slot
# stays held long enough for both probes.
SAT_BATCH=$(jq -nc '{queries: [range(1500) | {agg: "SUM", attr: "price", where: {price: [(. * 0.1), (. * 0.1 + 53.7)], utc: [(. % 12), ((. % 12) + 6)]}}], parallelism: 1}')
SAT_OK=""
for attempt in $(seq 10); do
  curl -fsS -X POST -d "$SAT_BATCH" "$SAT_BASE/v1/batch" >/dev/null &
  SAT_CURL=$!
  sleep 0.1

  DEGRADED=$(curl -fsS -X POST -H 'Content-Type: application/json' \
    -d '{"query":{"agg":"SUM","attr":"price","where":{"utc":[6,14]}},"max_width":1e15}' "$SAT_BASE/v1/bound")
  jq -e '.precision == "summary" and (.range.lo <= .range.hi)' <<<"$DEGRADED" >/dev/null \
    || { echo "tier-opted bound on the single-slot server answered: $DEGRADED" >&2; exit 1; }
  CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    -d '{"query":{"agg":"SUM","attr":"price","where":{"utc":[6,14]}}}' "$SAT_BASE/v1/bound")

  wait "$SAT_CURL" || { echo "saturation batch failed" >&2; cat "$SAT_LOG"; exit 1; }
  DEG_COUNT=$(curl -fsS "$SAT_BASE/metrics" | awk '$1 == "pcserved_tier_degraded_total" { print $2 }')
  if [[ "$CODE" == 429 && "${DEG_COUNT:-0}" -ge 1 ]]; then
    SAT_OK=1
    break
  fi
  echo "   attempt $attempt: batch drained before the probes (exact probe $CODE, degraded_total ${DEG_COUNT:-0}); retrying"
done
[[ -n "$SAT_OK" ]] || { echo "never observed saturation in 10 attempts" >&2; exit 1; }
echo "   degraded summary answer served under saturation; exact-only sheds 429 (degraded_total=$DEG_COUNT)"
stop_server "$SAT_PID" || { echo "saturation pcserved exited non-zero:" >&2; cat "$SAT_LOG"; exit 1; }
rm -f "$SAT_LOG"

echo "== graceful shutdown drains an in-flight batch"
BATCH=$(jq -nc '{queries: [range(200) | {agg: "SUM", attr: "price", where: {utc: [(. % 12), ((. % 12) + 6)]}}], parallelism: 1}')
DRAIN_OUT=$(mktemp)
curl -fsS -X POST -d "$BATCH" "$BASE/v1/batch" >"$DRAIN_OUT" &
CURL_PID=$!
sleep 0.3
kill -TERM "$SERVER_PID"
wait "$CURL_PID" || { echo "in-flight batch was dropped during shutdown" >&2; cat "$LOG"; exit 1; }
jq -e '.ranges | length == 200' "$DRAIN_OUT" >/dev/null \
  || { echo "drained batch response incomplete: $(head -c 200 "$DRAIN_OUT")" >&2; exit 1; }
wait "$SERVER_PID" || { echo "pcserved exited non-zero after drain:" >&2; cat "$LOG"; exit 1; }
grep -q "drained cleanly" "$LOG" || { echo "no clean-drain log line:" >&2; cat "$LOG"; exit 1; }
rm -f "$DRAIN_OUT"

echo "serve-e2e: all checks passed"
