#!/usr/bin/env bash
# Fleet smoke test: the ISSUE-6 acceptance scenario, end to end.
#
#   1. start 3 mtvd nodes on ephemeral loopback TCP ports (the ports
#      are read back from each node's startup line);
#   2. `mtvctl --fleet` scatters a sweep across them; its folded
#      digest must be bit-identical to `mtvctl sweep --local`;
#   3. a routing daemon (`mtvd --route`) in front of the same nodes,
#      on its unix socket and an ephemeral TCP port, serves a plain
#      `mtvctl sweep` with the same digest over both, answers ping
#      with fleet info and status with the membership table;
#   4. SIGKILL one node MID-SWEEP: the fleet sweep must complete with
#      exit 0 and no client-visible error, report rerouted points and
#      the dead node on its `fleet:` line, and its digest must STILL
#      match --local.
#
# On failure the per-node logs are copied to <build-dir>/fleet-logs
# so CI can upload them as artifacts.
#
# Usage: tools/fleet_smoke.sh <build-dir> [kill-scale]
set -euo pipefail

BUILD_DIR=${1:?usage: fleet_smoke.sh <build-dir> [kill-scale]}
# The mid-kill sweep must run long enough for the kill, polled on
# node 1's progress, to land mid-stream; the plain digest checks use
# a faster scale.
KILL_SCALE=${2:-1e-4}
QUICK_SCALE=1e-5
WORK=$(mktemp -d /tmp/mtv_fleet_smoke.XXXXXX)
NODE_PIDS=()
ROUTER_PID=""

cleanup() {
    local status=$?
    for pid in "${NODE_PIDS[@]}"; do
        kill -9 "$pid" 2>/dev/null || true
    done
    [ -n "$ROUTER_PID" ] && kill -9 "$ROUTER_PID" 2>/dev/null || true
    if [ "$status" -ne 0 ]; then
        mkdir -p "$BUILD_DIR/fleet-logs"
        cp "$WORK"/*.log "$BUILD_DIR/fleet-logs/" 2>/dev/null || true
        echo "FAIL: logs copied to $BUILD_DIR/fleet-logs"
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Start node $1 on an ephemeral TCP port; sets NODE_EP to host:port.
start_node() {
    local n=$1
    "$BUILD_DIR/mtvd" --socket "$WORK/node$n.sock" \
        --tcp-ephemeral 127.0.0.1 \
        > "$WORK/node$n.log" 2>&1 &
    NODE_PIDS[$n]=$!
    disown "${NODE_PIDS[$n]}"  # no job-control noise on kill -9
    NODE_EP=""
    for _ in $(seq 1 50); do
        NODE_EP=$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' \
            "$WORK/node$n.log" 2>/dev/null \
            | head -1 | sed 's/listening on //') || true
        if [ -n "$NODE_EP" ] && "$BUILD_DIR/mtvctl" --tcp "$NODE_EP" \
            ping > /dev/null 2>&1; then
            return
        fi
        sleep 0.1
    done
    echo "FAIL: node $n did not come up"
    cat "$WORK/node$n.log"
    exit 1
}

digest_of() {  # digest_of <sweep output>
    echo "$1" | grep '^digest:' | awk '{print $2}'
}

echo "== start a 3-node fleet on ephemeral TCP ports =="
start_node 0; EP0=$NODE_EP
start_node 1; EP1=$NODE_EP
start_node 2; EP2=$NODE_EP
FLEET="$EP0,$EP1,$EP2"
echo "fleet: $FLEET"

echo "== fleet sweep must fold the --local digest =="
LOCAL_OUT=$("$BUILD_DIR/mtvctl" sweep --local --scale "$QUICK_SCALE")
LOCAL_DIGEST=$(digest_of "$LOCAL_OUT")
FLEET_OUT=$("$BUILD_DIR/mtvctl" --fleet "$FLEET" sweep \
    --scale "$QUICK_SCALE")
FLEET_DIGEST=$(digest_of "$FLEET_OUT")
echo "$FLEET_OUT" | grep '^fleet:'
if [ "$FLEET_DIGEST" != "$LOCAL_DIGEST" ]; then
    echo "FAIL: fleet digest $FLEET_DIGEST != local $LOCAL_DIGEST"
    exit 1
fi
echo "$FLEET_OUT" | grep -q 'rerouted=0' \
    || { echo "FAIL: healthy fleet rerouted points"; exit 1; }
echo "fleet digest $FLEET_DIGEST == --local"

echo "== a routing daemon serves the same digest to a plain client =="
"$BUILD_DIR/mtvd" --route "$FLEET" --socket "$WORK/router.sock" \
    --tcp-ephemeral 127.0.0.1 > "$WORK/router.log" 2>&1 &
ROUTER_PID=$!
disown "$ROUTER_PID"
ROUTER_EP=""
for _ in $(seq 1 50); do
    ROUTER_EP=$(grep -oE 'listening on 127\.0\.0\.1:[0-9]+' \
        "$WORK/router.log" 2>/dev/null \
        | head -1 | sed 's/listening on //') || true
    if [ -n "$ROUTER_EP" ] && "$BUILD_DIR/mtvctl" \
        --socket "$WORK/router.sock" ping > /dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
"$BUILD_DIR/mtvctl" --socket "$WORK/router.sock" ping \
    || { echo "FAIL: router did not come up"; exit 1; }
"$BUILD_DIR/mtvctl" --socket "$WORK/router.sock" status \
    | grep -q "^node $EP0:" \
    || { echo "FAIL: router status misses node $EP0"; exit 1; }
ROUTED_OUT=$("$BUILD_DIR/mtvctl" --socket "$WORK/router.sock" sweep \
    --scale "$QUICK_SCALE")
ROUTED_DIGEST=$(digest_of "$ROUTED_OUT")
if [ "$ROUTED_DIGEST" != "$LOCAL_DIGEST" ]; then
    echo "FAIL: routed digest $ROUTED_DIGEST != local $LOCAL_DIGEST"
    exit 1
fi
echo "routed digest $ROUTED_DIGEST == --local"
[ -n "$ROUTER_EP" ] \
    || { echo "FAIL: router logged no TCP endpoint"; exit 1; }
ROUTED_TCP_OUT=$("$BUILD_DIR/mtvctl" --tcp "$ROUTER_EP" sweep \
    --scale "$QUICK_SCALE")
ROUTED_TCP_DIGEST=$(digest_of "$ROUTED_TCP_OUT")
if [ "$ROUTED_TCP_DIGEST" != "$LOCAL_DIGEST" ]; then
    echo "FAIL: routed TCP digest $ROUTED_TCP_DIGEST != local $LOCAL_DIGEST"
    exit 1
fi
echo "routed digest over TCP ($ROUTER_EP) $ROUTED_TCP_DIGEST == --local"

echo "== router metrics op aggregates per-node counters =="
METRICS_OUT=$("$BUILD_DIR/mtvctl" --socket "$WORK/router.sock" metrics)
echo "$METRICS_OUT" | grep -q '"fleet":true' \
    || { echo "FAIL: router metrics response is not fleet-shaped"; \
         exit 1; }
# All three nodes must have answered with their registries: the
# response carries a top-level ok plus one per reachable node.
NODE_OKS=$(echo "$METRICS_OUT" | grep -o '"ok":true' | wc -l)
[ "$NODE_OKS" -ge 4 ] \
    || { echo "FAIL: not every node answered the metrics gather"; \
         echo "$METRICS_OUT"; exit 1; }
# The summed completed-points counter must cover the routed sweep
# that just ran (totals come last in the response, hence tail -1).
TOTAL_POINTS=$(echo "$METRICS_OUT" \
    | grep -oE '"engine_points_completed_total":[0-9]+' \
    | tail -1 | cut -d: -f2)
[ -n "$TOTAL_POINTS" ] && [ "$TOTAL_POINTS" -ge 250 ] \
    || { echo "FAIL: fleet totals miss the sweep's points \
(got '$TOTAL_POINTS')"; exit 1; }
# The same aggregation client-side, without the routing daemon.
FLEETMETRICS_OUT=$("$BUILD_DIR/mtvctl" --fleet "$FLEET" metrics)
echo "$FLEETMETRICS_OUT" | grep -q '"totals"' \
    || { echo "FAIL: --fleet metrics carries no totals"; exit 1; }
# And one node's Prometheus exposition, scraped directly.
PROM_OUT=$("$BUILD_DIR/mtvctl" --tcp "$EP0" metrics --prom)
echo "$PROM_OUT" \
    | grep -q '^# TYPE engine_points_completed_total counter' \
    || { echo "FAIL: node prom exposition misses engine counters"; \
         exit 1; }
echo "fleet metrics: 3 nodes gathered, totals cover \
$TOTAL_POINTS completed points"

kill -9 "$ROUTER_PID" 2>/dev/null || true
ROUTER_PID=""

echo "== SIGKILL node 1 mid-sweep: the fleet must finish anyway =="
node1_completed() {
    "$BUILD_DIR/mtvctl" --tcp "$EP1" stats \
        | grep -oE '"completedPoints":[0-9]+' | cut -d: -f2
}
BEFORE_KILL=$(node1_completed)
"$BUILD_DIR/mtvctl" --fleet "$FLEET" sweep --scale "$KILL_SCALE" \
    > "$WORK/killed_sweep.out" 2>&1 &
SWEEP_PID=$!
# Kill node 1 as soon as it has completed a point of this sweep, so
# the kill lands mid-stream however fast the host simulates.
KILLED=0
for _ in $(seq 1 600); do
    kill -0 "$SWEEP_PID" 2>/dev/null || break
    NOW=$(node1_completed) || NOW=$BEFORE_KILL
    if [ "${NOW:-0}" -gt "$BEFORE_KILL" ]; then
        kill -9 "${NODE_PIDS[1]}"
        KILLED=1
        break
    fi
    sleep 0.05
done
if [ "$KILLED" != 1 ]; then
    echo "FAIL: the sweep ended (or stalled) before node 1 completed \
a point of it (raise kill-scale?)"
    cat "$WORK/killed_sweep.out"
    exit 1
fi
if ! wait "$SWEEP_PID"; then
    echo "FAIL: fleet sweep died with a node kill mid-flight"
    cat "$WORK/killed_sweep.out"
    exit 1
fi
KILLED_OUT=$(cat "$WORK/killed_sweep.out")
echo "$KILLED_OUT" | grep '^fleet:'
echo "$KILLED_OUT" | grep '^fleet:' | grep -q 'alive=2' \
    || { echo "FAIL: dead node not reflected in alive count"; exit 1; }
echo "$KILLED_OUT" | grep '^fleet:' | grep -qE 'rerouted=[1-9]' \
    || { echo "FAIL: no points rerouted — kill missed the sweep \
(raise kill-scale?)"; cat "$WORK/killed_sweep.out"; exit 1; }
echo "$KILLED_OUT" | grep '^fleet:' | grep -q "dead=$EP1" \
    || { echo "FAIL: fleet line does not name the killed node"; \
         exit 1; }

KILLED_DIGEST=$(digest_of "$KILLED_OUT")
LOCAL_KILL_DIGEST=$(digest_of \
    "$("$BUILD_DIR/mtvctl" sweep --local --scale "$KILL_SCALE")")
if [ "$KILLED_DIGEST" != "$LOCAL_KILL_DIGEST" ]; then
    echo "FAIL: post-kill digest $KILLED_DIGEST != local $LOCAL_KILL_DIGEST"
    exit 1
fi

REROUTED=$(echo "$KILLED_OUT" | grep '^fleet:' \
    | grep -oE 'rerouted=[0-9]+' | cut -d= -f2)
echo "PASS: 3-node fleet digest == routed (unix and TCP) == --local; node kill \
mid-sweep rerouted $REROUTED points and stayed bit-identical \
($KILLED_DIGEST)"
