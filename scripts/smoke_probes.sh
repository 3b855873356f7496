#!/usr/bin/env bash
# Probe smoke test: build the real geacc-server, boot it with persistence,
# wait for readiness, and exercise every operational surface once —
# /healthz, /readyz, /statusz, /version, /metrics, /algorithms, /solve,
# /validate, /report, /instances/{id}/stats, and the X-Request-ID
# correlation contract. This is the "does the ops surface actually come up
# on a real binary" check the unit tests (which drive handlers in-process)
# cannot give.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-$((18080 + RANDOM % 1000))}"
BASE="http://127.0.0.1:${PORT}"
TMP="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    echo "--- server log ---" >&2
    cat "$TMP/server.log" >&2 || true
    exit 1
}

echo "== building geacc-server"
go build -o "$TMP/geacc-server" ./cmd/geacc-server

echo "== starting on :${PORT} with -data-dir"
"$TMP/geacc-server" -addr "127.0.0.1:${PORT}" -data-dir "$TMP/data" \
    -log-format json >"$TMP/server.log" 2>&1 &
SERVER_PID=$!

echo "== waiting for /readyz"
for i in $(seq 1 100); do
    if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then
        break
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
    [ "$i" = 100 ] && fail "/readyz never answered 200"
    sleep 0.1
done

echo "== probes"
curl -fsS "$BASE/healthz" | grep -q ok || fail "/healthz"
curl -fsS "$BASE/readyz" | jq -e '.ready == true and .checks.replay == "ok" and .checks.store == "ok"' \
    >/dev/null || fail "/readyz body"

echo "== statusz"
curl -fsS "$BASE/statusz" | jq -e '
    .service == "geacc-server"
    and (.build.version | length > 0)
    and (.uptime_seconds >= 0)
    and .ready == true
    and has("endpoints") and has("solvers")' >/dev/null || fail "/statusz body"

echo "== version + metrics"
curl -fsS "$BASE/version" | jq -e '.version and .go_version' >/dev/null || fail "/version body"
METRICS="$(curl -fsS "$BASE/metrics")"
echo "$METRICS" | grep -q '^geacc_build_info{' || fail "metrics lack geacc_build_info"
echo "$METRICS" | grep -q '^geacc_process_uptime_seconds ' || fail "metrics lack uptime"
echo "$METRICS" | grep -q 'geacc_http_window_seconds_rate{path="/readyz"' \
    || fail "metrics lack rolling windows"

echo "== request-ID correlation"
GEN_ID="$(curl -fsS -D - -o /dev/null "$BASE/healthz" | tr -d '\r' \
    | awk 'tolower($1) == "x-request-id:" {print $2}')"
[ -n "$GEN_ID" ] || fail "no X-Request-ID assigned"
ECHO_ID="$(curl -fsS -D - -o /dev/null -H 'X-Request-ID: smoke-probe-1' "$BASE/healthz" \
    | tr -d '\r' | awk 'tolower($1) == "x-request-id:" {print $2}')"
[ "$ECHO_ID" = "smoke-probe-1" ] || fail "inbound X-Request-ID not honored (got '$ECHO_ID')"
curl -fsS -o /dev/null -w '' "$BASE/instances" || true
curl -sS -H 'X-Request-ID: smoke-probe-2' "$BASE/instances/nope" \
    | jq -e '.request_id == "smoke-probe-2"' >/dev/null || fail "error body lacks request_id"

echo "== stateless solver surface"
INSTANCE='{"events":[{"cap":2},{"cap":1}],"users":[{"cap":1},{"cap":1},{"cap":2}],"sim":"matrix","matrix":[[0.9,0.1,0.5],[0.2,0.8,0.3]]}'
PAIR="{\"instance\":$INSTANCE,\"matching\":{\"pairs\":[{\"v\":0,\"u\":0,\"sim\":0.9}]}}"
curl -fsS "$BASE/algorithms" | jq -e '
    .algorithms | contains(["exact", "greedy", "mincostflow", "random-u", "random-v"])' \
    >/dev/null || fail "/algorithms lacks a solver"
curl -fsS -XPOST --data-binary "$INSTANCE" "$BASE/solve?algo=mincostflow&diag=1" | jq -e '
    .algo == "mincostflow" and .events == 2 and .users == 3
    and (.matching.pairs | length) > 0 and .matching.max_sum > 0
    and .diagnostics.gap >= 0 and .diagnostics.relaxed_upper_bound >= .matching.max_sum' \
    >/dev/null || fail "/solve body"
curl -fsS -XPOST --data-binary "$PAIR" "$BASE/validate" | jq -e '
    .feasible == true and .pairs == 1 and .max_sum == 0.9' >/dev/null || fail "/validate body"
curl -fsS -XPOST --data-binary "$PAIR" "$BASE/report" | jq -e '
    .Pairs == 1 and .MaxSum == 0.9 and .UpperBound >= .MaxSum' >/dev/null || fail "/report body"

echo "== instance stats"
curl -fsS -XPOST -d '{"id":"smoke","sim":"euclidean","dim":2,"max_t":10}' \
    "$BASE/instances" >/dev/null || fail "create instance"
curl -fsS -XPOST -d '{"attrs":[1,2],"cap":2}' "$BASE/instances/smoke/events" >/dev/null
curl -fsS -XPOST -d '{"attrs":[1,1],"cap":1}' "$BASE/instances/smoke/users" >/dev/null
curl -fsS -XPOST "$BASE/instances/smoke/rebalance?scope=dirty" >/dev/null
curl -fsS "$BASE/instances/smoke/stats" | jq -e '
    .persistent == true
    and .op_counts.add_event == 1
    and .op_counts.add_user == 1
    and .op_counts.rebalance == 1
    and .seq == 3
    and (.recent_rebalances | length) == 1
    and (.recent_rebalances[0].request_id | length > 0)' >/dev/null || fail "/instances/smoke/stats body"

grep -q '"request_id"' "$TMP/server.log" || fail "server log lines lack request_id"

echo "PASS: probe smoke"
