#!/usr/bin/env bash
# Loadgen smoke test: interactive latency stays bounded under load —
# the ISSUE-7 acceptance scenario.
#
#   1. start one mtvd (default kernel: batched) on a unix socket;
#   2. mtvloadgen drives 200 closed-loop clients of single-point
#      interactive runs WHILE a quiet 10k-point background sweep
#      streams on its own connection (the weighted-lane scheduling
#      scenario);
#   3. fail when the p99 interactive latency exceeds the committed
#      bound, any request errored, the background sweep streamed
#      nothing, or the daemon's own metrics report write failures /
#      rerouted points.
#
# On failure the daemon log is copied to <build-dir>/loadgen-logs so
# CI can upload it as an artifact.
#
# Usage: tools/loadgen_smoke.sh <build-dir> [p99-bound-ms]
set -euo pipefail

BUILD_DIR=${1:?usage: loadgen_smoke.sh <build-dir> [p99-bound-ms]}
# The committed latency bound: generous against CI-runner noise, but
# low enough that a head-of-line-blocked interactive lane (seconds
# behind a 10k-point sweep) still fails loudly.
P99_BOUND_MS=${2:-2000}
WORK=$(mktemp -d /tmp/mtv_loadgen_smoke.XXXXXX)
DAEMON_PID=""

cleanup() {
    local status=$?
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    if [ "$status" -ne 0 ]; then
        mkdir -p "$BUILD_DIR/loadgen-logs"
        cp "$WORK"/*.log "$BUILD_DIR/loadgen-logs/" 2>/dev/null || true
        echo "FAIL: logs copied to $BUILD_DIR/loadgen-logs"
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "== start one mtvd (default kernel) =="
"$BUILD_DIR/mtvd" --socket "$WORK/mtvd.sock" > "$WORK/mtvd.log" 2>&1 &
DAEMON_PID=$!
disown "$DAEMON_PID"
for _ in $(seq 1 50); do
    if "$BUILD_DIR/mtvctl" --socket "$WORK/mtvd.sock" ping \
        > /dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
"$BUILD_DIR/mtvctl" --socket "$WORK/mtvd.sock" ping > /dev/null \
    || { echo "FAIL: daemon did not come up"; exit 1; }

echo "== 200 clients + 10k-point background sweep =="
OUT=$("$BUILD_DIR/mtvloadgen" --socket "$WORK/mtvd.sock" \
    --clients 200 --requests 10 --sweep-points 10000 --json)
echo "$OUT"

P99_MS=$(echo "$OUT" | grep -oE '"p99Ms":[0-9.]+' | cut -d: -f2)
ERRORS=$(echo "$OUT" | grep -oE '"errors":[0-9]+' | cut -d: -f2)
COMPLETED=$(echo "$OUT" | grep -oE '"completed":[0-9]+' | cut -d: -f2)
SWEEP_POINTS=$(echo "$OUT" | grep -oE '"sweepPoints":[0-9]+' | cut -d: -f2)

[ -n "$P99_MS" ] && [ -n "$ERRORS" ] && [ -n "$COMPLETED" ] \
    || { echo "FAIL: loadgen JSON misses fields"; exit 1; }
[ "$ERRORS" -eq 0 ] \
    || { echo "FAIL: $ERRORS interactive requests errored"; exit 1; }
[ "$COMPLETED" -eq 2000 ] \
    || { echo "FAIL: only $COMPLETED of 2000 requests completed"; exit 1; }
[ "$SWEEP_POINTS" -gt 0 ] \
    || { echo "FAIL: the background sweep streamed no points — the \
load test measured an idle daemon"; exit 1; }
awk -v p="$P99_MS" -v bound="$P99_BOUND_MS" \
    'BEGIN { exit !(p <= bound) }' \
    || { echo "FAIL: p99 interactive latency ${P99_MS}ms exceeds \
the ${P99_BOUND_MS}ms bound"; exit 1; }
echo "p99 ${P99_MS}ms <= ${P99_BOUND_MS}ms with $SWEEP_POINTS sweep \
points streaming in the background"

echo "== asserted daemon metrics =="
METRICS=$("$BUILD_DIR/mtvctl" --socket "$WORK/mtvd.sock" metrics)
echo "$METRICS" | grep -q '"service_write_failures_total":0' \
    || { echo "FAIL: daemon reported write failures"; exit 1; }
# A plain daemon never reroutes; any nonzero fleet_reroutes_total
# means fleet machinery leaked into the single-node path.
if echo "$METRICS" | grep -qE '"fleet_reroutes_total":[1-9]'; then
    echo "FAIL: single-node daemon reported rerouted points"
    exit 1
fi
PROM=$("$BUILD_DIR/mtvctl" --socket "$WORK/mtvd.sock" metrics --prom)
echo "$PROM" | grep -q '^service_first_point_us_bucket' \
    || { echo "FAIL: prom exposition misses latency buckets"; exit 1; }

"$BUILD_DIR/mtvctl" --socket "$WORK/mtvd.sock" shutdown > /dev/null
echo "PASS: p99 ${P99_MS}ms under 200-client load with a background \
sweep; no errors, no write failures"
