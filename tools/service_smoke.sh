#!/usr/bin/env bash
# Service smoke test: the ISSUE-4 acceptance scenario, end to end.
#
#   1. start mtvd with a fresh sharded store and SIGKILL it MID-SWEEP
#      (no graceful close, appends in flight across the shards);
#   2. restart on the same store: every shard recovers its intact
#      records (crash tails dropped), and a full sweep — sent as ONE
#      ~100-byte server-side-expanded request — completes, reusing
#      whatever the killed run persisted;
#   3. SIGKILL the idle daemon, restart, sweep again: now >= 95% of
#      the points must be store-served and the digest bit-identical
#      to the pre-kill run;
#   4. SIGKILL a *client* mid-sweep (ISSUE-5): the daemon must reap
#      the abandoned batch (visible in `mtvctl status` counters),
#      stay responsive, and a subsequent sweep must still be
#      digest-identical;
#   5. assert a cold in-process run (mtvctl sweep --local, no daemon)
#      produces the same digest.
#
# Usage: tools/service_smoke.sh <build-dir> [scale]
set -euo pipefail

BUILD_DIR=${1:?usage: service_smoke.sh <build-dir> [scale]}
SCALE=${2:-1e-5}
WORK=$(mktemp -d /tmp/mtv_smoke.XXXXXX)
SOCKET="$WORK/mtvd.sock"
STORE="$WORK/store"
DAEMON_PID=""

cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {
    "$BUILD_DIR/mtvd" --socket "$SOCKET" --store "$STORE" \
        >> "$WORK/daemon.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 50); do
        if "$BUILD_DIR/mtvctl" --socket "$SOCKET" ping \
            > /dev/null 2>&1; then
            return
        fi
        sleep 0.1
    done
    echo "FAIL: daemon did not come up"; cat "$WORK/daemon.log"
    exit 1
}

sweep() {
    "$BUILD_DIR/mtvctl" --socket "$SOCKET" sweep --scale "$SCALE"
}

field() {  # field <name> <<< "served: simulated=N cache=N store=N"
    grep -o "$1=[0-9]*" | cut -d= -f2
}

echo "== start a sweep on a fresh store, SIGKILL the daemon mid-flight =="
start_daemon
sweep > "$WORK/killed_sweep.out" 2>&1 &
SWEEP_PID=$!
sleep 0.4
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
# The client loses its daemon mid-stream; any exit is acceptable.
wait "$SWEEP_PID" 2>/dev/null || true
PARTIAL=$(ls "$STORE"/shard-*/seg-*.mtvs 2>/dev/null | wc -l)
echo "killed mid-sweep; $PARTIAL shard segments left behind"

echo "== restart on the killed store, run the full sweep =="
start_daemon
COLD_OUT=$(sweep)
COLD_DIGEST=$(echo "$COLD_OUT" | grep '^digest:' | awk '{print $2}')
COLD_SIM=$(echo "$COLD_OUT" | grep '^served:' | field simulated)
COLD_STORE=$(echo "$COLD_OUT" | grep '^served:' | field store)
echo "recovered run: simulated=$COLD_SIM store=$COLD_STORE digest=$COLD_DIGEST"

# A daemon started without --kernel ships the batched fast lane.
KERNEL=$("$BUILD_DIR/mtvctl" --socket "$SOCKET" status \
    | grep '^kernel:' | awk '{print $2}')
if [ "$KERNEL" != batched ]; then
    echo "FAIL: default daemon kernel is '$KERNEL', want batched"
    exit 1
fi
echo "default kernel: $KERNEL"

echo "== SIGKILL the idle daemon, restart, sweep must be store-served =="
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
start_daemon
grep -q 'shards' "$WORK/daemon.log" \
    || { echo "FAIL: daemon did not report a sharded store"; exit 1; }

WARM_OUT=$(sweep)
WARM_DIGEST=$(echo "$WARM_OUT" | grep '^digest:' | awk '{print $2}')
SERVED=$(echo "$WARM_OUT" | grep '^served:')
WARM_STORE=$(echo "$SERVED" | field store)
WARM_TOTAL=$(echo "$WARM_OUT" | grep '^sweep:' | grep -o '[0-9]* points' | awk '{print $1}')
echo "warm: $SERVED (of $WARM_TOTAL points) digest=$WARM_DIGEST"

# >= 95% of the points must come from the persistent store.
THRESHOLD=$(( WARM_TOTAL * 95 / 100 ))
if [ "$WARM_STORE" -lt "$THRESHOLD" ]; then
    echo "FAIL: only $WARM_STORE/$WARM_TOTAL points store-served (need >= $THRESHOLD)"
    exit 1
fi

# Bit-identical across both SIGKILL restarts.
if [ "$WARM_DIGEST" != "$COLD_DIGEST" ]; then
    echo "FAIL: warm digest $WARM_DIGEST != cold digest $COLD_DIGEST"
    exit 1
fi

echo "== SIGKILL a CLIENT mid-sweep: daemon must reap and stay up =="
# A heavier, uncached scale so the killed client leaves real queued
# work behind (the $SCALE points are all store-served by now).
KILL_SCALE=3e-4
completed() {
    "$BUILD_DIR/mtvctl" --socket "$SOCKET" stats \
        | grep -oE '"completedPoints":[0-9]+' | cut -d: -f2
}
BEFORE_KILL=$(completed)
"$BUILD_DIR/mtvctl" --socket "$SOCKET" sweep --scale "$KILL_SCALE" \
    > "$WORK/killed_client.out" 2>&1 &
CLIENT_PID=$!
# Kill the client as soon as the daemon has completed a point of its
# sweep: the batch is then under way with most of it still queued,
# however fast the host simulates.
KILLED=0
for _ in $(seq 1 600); do
    kill -0 "$CLIENT_PID" 2>/dev/null || break
    NOW=$(completed) || NOW=$BEFORE_KILL
    if [ "${NOW:-0}" -gt "$BEFORE_KILL" ]; then
        kill -9 "$CLIENT_PID" 2>/dev/null || true
        KILLED=1
        break
    fi
    sleep 0.05
done
wait "$CLIENT_PID" 2>/dev/null || true
if [ "$KILLED" != 1 ]; then
    echo "FAIL: the client's sweep ended (or stalled) before the daemon \
completed a point of it"
    cat "$WORK/killed_client.out"
    exit 1
fi

# The daemon must answer status immediately and, once the reap
# settles, report the abandoned batch and its freed points.
REAPED=0; FREED=0
for _ in $(seq 1 50); do
    STATUS=$("$BUILD_DIR/mtvctl" --socket "$SOCKET" status) \
        || { echo "FAIL: daemon unresponsive after client kill"; exit 1; }
    ACTIVE=$(echo "$STATUS" | grep '^active requests:' | awk '{print $3}')
    REAPED=$(echo "$STATUS" | grep -o 'reapedBatches=[0-9]*' | cut -d= -f2)
    CANCELLED=$(echo "$STATUS" | grep -o 'cancelledPoints=[0-9]*' | cut -d= -f2)
    DISCARDED=$(echo "$STATUS" | grep -o 'discardedPoints=[0-9]*' | cut -d= -f2)
    FREED=$(( CANCELLED + DISCARDED ))
    QUEUE=$(echo "$STATUS" | grep '^queue depth:' | awk '{print $3}')
    if [ "$ACTIVE" = 0 ] && [ "$QUEUE" = 0 ]; then
        break
    fi
    sleep 0.2
done
echo "after client kill: reapedBatches=$REAPED freedPoints=$FREED"
if [ "$REAPED" -lt 1 ] || [ "$FREED" -lt 1 ]; then
    echo "FAIL: daemon did not reap the killed client's work"
    "$BUILD_DIR/mtvctl" --socket "$SOCKET" status
    exit 1
fi

# And it still serves: the standard sweep stays digest-identical.
AFTER_OUT=$(sweep)
AFTER_DIGEST=$(echo "$AFTER_OUT" | grep '^digest:' | awk '{print $2}')
if [ "$AFTER_DIGEST" != "$COLD_DIGEST" ]; then
    echo "FAIL: post-kill digest $AFTER_DIGEST != cold digest $COLD_DIGEST"
    exit 1
fi
echo "daemon responsive after client kill, digest still $AFTER_DIGEST"

echo "== cold in-process run (no daemon) =="
LOCAL_DIGEST=$("$BUILD_DIR/mtvctl" sweep --local --scale "$SCALE" \
    | grep '^digest:' | awk '{print $2}')
echo "local: digest=$LOCAL_DIGEST"
if [ "$LOCAL_DIGEST" != "$COLD_DIGEST" ]; then
    echo "FAIL: local digest $LOCAL_DIGEST != daemon digest $COLD_DIGEST"
    exit 1
fi

"$BUILD_DIR/mtvctl" --socket "$SOCKET" stats
"$BUILD_DIR/mtvctl" --socket "$SOCKET" shutdown > /dev/null
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""

echo "PASS: mid-sweep SIGKILL recovered; $WARM_STORE/$WARM_TOTAL store-served; client kill reaped ($REAPED batch, $FREED points freed); digests bit-identical (daemon == restart == --local)"
