#!/usr/bin/env bash
# serve_smoke.sh — end-to-end observability smoke against a real fthessd.
#
# Builds the daemon, starts it, submits one FT job over HTTP, waits for it
# to finish, and then asserts the observability surface this repo
# promises for every served job:
#   * /v1/jobs/{id}        reports state=done plus a trace_id and the
#                          per-job FT reliability summary
#   * /metrics             exposes serve_job_duration_seconds with its
#                          companion p50/p95/p99 _quantile gauges
#   * /v1/jobs/{id}/trace  serves a non-empty Chrome trace
#   * /debug/events        holds the job's flight-recorder events
#   * pool jobs            a devices:2 FT job's trace carries the pool's
#                          main-host lane (the panel factorization)
#   * /v1/version          reports the build
#   * batched jobs         a 3-matrix batch runs on fractional lanes and
#                          an identical resubmission is served entirely
#                          from the result cache
#   * footprint            a second daemon at -obs slo serves four
#                          n=4096 cost-only jobs and its peak RSS
#                          (VmHWM) stays below 100 MB: finished jobs keep
#                          no input, and cost-only inputs carry no values
#
# Needs only bash + curl (no jq): JSON fields are pulled with grep.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
BIN="$(mktemp -d)/fthessd"
LOG="$(mktemp)"

go build -o "$BIN" ./cmd/fthessd

"$BIN" -addr "127.0.0.1:${PORT}" -capacity 2 -devices 2 -lanes 2 -cache 16 &
DPID=$!
SPID=""
trap 'kill $DPID $SPID 2>/dev/null || true; wait $DPID $SPID 2>/dev/null || true' EXIT

wait_healthy() {
  for i in $(seq 1 50); do
    curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "fthessd at $1 never became healthy" >&2
  return 1
}
wait_healthy "$BASE"

echo "== submit"
SUB=$(curl -fsS -X POST "$BASE/v1/jobs" \
  -d '{"n":64,"nb":8,"seed":3,"algorithm":"ft","faults":[{"area":2,"iter":1,"seed":9}]}')
echo "$SUB"
ID=$(echo "$SUB" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/')
[ -n "$ID" ] || { echo "no job id in submit response" >&2; exit 1; }

echo "== poll $ID"
for i in $(seq 1 150); do
  ST=$(curl -fsS "$BASE/v1/jobs/$ID")
  case "$ST" in
    *'"state": "done"'*) break ;;
    *'"state": "failed"'*|*'"state": "cancelled"'*)
      echo "job ended badly: $ST" >&2; exit 1 ;;
  esac
  [ "$i" = 150 ] && { echo "timeout waiting for job: $ST" >&2; exit 1; }
  sleep 0.2
done
echo "$ST"
echo "$ST" | grep -q '"trace_id"' || { echo "status has no trace_id" >&2; exit 1; }
echo "$ST" | grep -q '"reliability"' || { echo "status has no reliability summary" >&2; exit 1; }
echo "$ST" | grep -q '"detections": *[1-9]' || { echo "injected fault not detected" >&2; exit 1; }

echo "== /metrics quantiles"
METRICS=$(curl -fsS "$BASE/metrics")
for want in \
  'serve_job_duration_seconds_bucket' \
  'serve_job_duration_seconds_quantile{outcome="done",quantile="0.5"}' \
  'serve_job_duration_seconds_quantile{outcome="done",quantile="0.95"}' \
  'serve_job_duration_seconds_quantile{outcome="done",quantile="0.99"}' \
  'serve_queue_wait_seconds' \
  'serve_queue_depth'
do
  # grep without -q: -q exits at the first match, and if the metrics page
  # outgrows the pipe buffer the writer dies with SIGPIPE under pipefail.
  echo "$METRICS" | grep -F "$want" >/dev/null \
    || { echo "/metrics missing: $want" >&2; exit 1; }
done
echo "$METRICS" | grep -F 'serve_job_duration_seconds_quantile'

echo "== /v1/jobs/$ID/trace"
TRACE=$(curl -fsS "$BASE/v1/jobs/$ID/trace")
[ -n "$TRACE" ] || { echo "empty trace" >&2; exit 1; }
echo "$TRACE" | grep -q '"ph":"X"' || { echo "trace has no slices" >&2; exit 1; }
echo "$TRACE" | grep -q 'job lifecycle' || { echo "trace missing the lifecycle process" >&2; exit 1; }
echo "$TRACE" | grep -q 'simulated device timeline' || { echo "trace missing the device process" >&2; exit 1; }
echo "trace: $(echo "$TRACE" | grep -o '"ph":"X"' | wc -l) slices"

echo "== pool job (devices: 2) traces the main-host lane"
PSUB=$(curl -fsS -X POST "$BASE/v1/jobs" \
  -d '{"n":64,"nb":8,"seed":3,"algorithm":"ft","devices":2,"faults":[{"area":2,"iter":1,"seed":9}]}')
PID_=$(echo "$PSUB" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/')
[ -n "$PID_" ] || { echo "no job id in pool submit response" >&2; exit 1; }
for i in $(seq 1 150); do
  ST=$(curl -fsS "$BASE/v1/jobs/$PID_")
  case "$ST" in
    *'"state": "done"'*) break ;;
    *'"state": "failed"'*|*'"state": "cancelled"'*)
      echo "pool job ended badly: $ST" >&2; exit 1 ;;
  esac
  [ "$i" = 150 ] && { echo "timeout waiting for pool job: $ST" >&2; exit 1; }
  sleep 0.2
done
PTRACE=$(curl -fsS "$BASE/v1/jobs/$PID_/trace")
# The simulated timeline is pid 2: find the main-host thread, then count
# the X slices on it.
HTID=$(echo "$PTRACE" | grep -o '"pid":2,"tid":[0-9]*,"args":{"name":"main-host"}' \
  | head -1 | sed 's/.*"tid":\([0-9]*\).*/\1/') || true
[ -n "$HTID" ] || { echo "pool trace declares no main-host thread" >&2; exit 1; }
HOSTX=$(echo "$PTRACE" | grep -o "\"ph\":\"X\",[^}]*\"pid\":2,\"tid\":$HTID[,}]" | wc -l)
[ "$HOSTX" -ge 1 ] || { echo "pool trace has no main-host slices" >&2; exit 1; }
echo "pool trace: $HOSTX main-host slices"

echo "== /debug/events"
EVENTS=$(curl -fsS "$BASE/debug/events")
echo "$EVENTS" | grep -q '"kind": "job:done"' || { echo "flight recorder missing job:done" >&2; exit 1; }
echo "$EVENTS" | grep -q '"kind": "ft:' || { echo "flight recorder missing FT events" >&2; exit 1; }

echo "== /v1/version"
VER=$(curl -fsS "$BASE/v1/version")
echo "$VER"
echo "$VER" | grep -q '"go_version"' || { echo "version has no go_version" >&2; exit 1; }

echo "== batched job (3 matrices on fractional lanes)"
BATCH_BODY='{"priority":"batch","nb":8,"batch":[{"n":32,"seed":1},{"n":48,"seed":2},{"n":32,"seed":3}]}'
poll_done() {
  local id=$1 base=${2:-$BASE} st=""
  for i in $(seq 1 150); do
    st=$(curl -fsS "$base/v1/jobs/$id")
    case "$st" in
      *'"state": "done"'*) echo "$st"; return 0 ;;
      *'"state": "failed"'*|*'"state": "cancelled"'*)
        echo "job $id ended badly: $st" >&2; return 1 ;;
    esac
    sleep 0.2
  done
  echo "timeout waiting for job $id: $st" >&2
  return 1
}
BSUB=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$BATCH_BODY")
BID=$(echo "$BSUB" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/')
[ -n "$BID" ] || { echo "no job id in batched submit response" >&2; exit 1; }
poll_done "$BID" >/dev/null
BRES=$(curl -fsS "$BASE/v1/jobs/$BID/result")
ITEMS=$(echo "$BRES" | grep -c '"index":') || true
[ "$ITEMS" = 3 ] || { echo "batched result has $ITEMS items, want 3" >&2; exit 1; }
echo "$BRES" | grep -q '"lane": *"d0\.l' || { echo "batched result has no lane assignments" >&2; exit 1; }
echo "$BRES" | grep -q '"result_digest"' || { echo "batched result has no digests" >&2; exit 1; }
echo "batched: $ITEMS items on fractional lanes"

echo "== identical resubmission is served from the cache"
B2SUB=$(curl -fsS -X POST "$BASE/v1/jobs" -d "$BATCH_BODY")
B2ID=$(echo "$B2SUB" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/')
poll_done "$B2ID" >/dev/null
B2RES=$(curl -fsS "$BASE/v1/jobs/$B2ID/result")
CACHED=$(echo "$B2RES" | grep -c '"cached": *true') || true
[ "$CACHED" = 3 ] || { echo "resubmitted batch: $CACHED/3 items cached" >&2; exit 1; }
METRICS2=$(curl -fsS "$BASE/metrics")
echo "$METRICS2" | grep '^serve_cache_hits_total [1-9]' >/dev/null \
  || { echo "/metrics missing cache hits" >&2; exit 1; }
echo "cache: all 3 items served from the result cache"

echo "== footprint: four n=4096 cost-only jobs at -obs slo (VmHWM < 100 MB)"
# Each job would hold 128 MiB of input if finished jobs kept it or if a
# cost-only input carried values.
SPORT=$((PORT + 1))
SBASE="http://127.0.0.1:${SPORT}"
"$BIN" -addr "127.0.0.1:${SPORT}" -obs slo &
SPID=$!
wait_healthy "$SBASE"
SIDS=""
for i in 1 2 3 4; do
  SSUB=$(curl -fsS -X POST "$SBASE/v1/jobs" -d '{"n":4096,"cost_only":true}')
  SID=$(echo "$SSUB" | grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/')
  [ -n "$SID" ] || { echo "no job id in cost-only submit response: $SSUB" >&2; exit 1; }
  SIDS="$SIDS $SID"
done
for SID in $SIDS; do
  poll_done "$SID" "$SBASE" >/dev/null
done
HWM=$(awk '/^VmHWM:/ {print $2}' "/proc/$SPID/status")
echo "fthessd -obs slo after 4 n=4096 cost-only jobs: ${HWM} kB peak RSS"
[ "$HWM" -lt 100000 ] || { echo "peak RSS ${HWM} kB exceeds 100 MB" >&2; exit 1; }

echo "serve smoke: OK"
