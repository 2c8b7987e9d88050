#!/usr/bin/env bash
# Digest smoke test: one sweep folds one digest wherever it runs.
#
#   1. a cold daemon sweep and a daemonless `sweep --local` fold the
#      same digest (the daemon streams binary result frames, the
#      local run never leaves the process);
#   2. a daemon restarted on the same --store re-serves the sweep
#      from disk: simulated=0 and the same digest, and its --follow
#      point dump reads line for line as the --local one does (bar
#      the "(store)" tag);
#   3. a routing daemon (`mtvd --route`) in front of that node gives
#      the same digest too.
#
# Usage: tools/wire_smoke.sh <build-dir> [scale]
set -euo pipefail

BUILD_DIR=${1:?usage: wire_smoke.sh <build-dir> [scale]}
SCALE=${2:-1e-5}
WORK=$(mktemp -d /tmp/mtv_wire_smoke.XXXXXX)
SOCKET="$WORK/mtvd.sock"
ROUTER="$WORK/router.sock"
STORE="$WORK/store"
DAEMON_PID=""
ROUTER_PID=""

cleanup() {
    [ -n "$ROUTER_PID" ] && kill -9 "$ROUTER_PID" 2>/dev/null || true
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

# Start a daemon (extra mtvd arguments in "$@") on $1 and wait for
# it to answer a ping; prints its pid.
start_daemon() {
    local sock=$1
    shift
    "$BUILD_DIR/mtvd" --socket "$sock" "$@" >> "$WORK/daemon.log" 2>&1 &
    local pid=$!
    for _ in $(seq 1 50); do
        if "$BUILD_DIR/mtvctl" --socket "$sock" ping > /dev/null 2>&1
        then
            echo "$pid"
            return
        fi
        sleep 0.1
    done
    echo "FAIL: daemon on $sock did not come up" >&2
    cat "$WORK/daemon.log" >&2
    exit 1
}

digest_of() { echo "$1" | grep '^digest:' | awk '{print $2}'; }
SWEEP=(sweep --family latency --scale "$SCALE")

echo "== a cold daemon sweep and --local fold one digest =="
DAEMON_PID=$(start_daemon "$SOCKET" --store "$STORE")
COLD_OUT=$("$BUILD_DIR/mtvctl" --socket "$SOCKET" "${SWEEP[@]}")
LOCAL_OUT=$("$BUILD_DIR/mtvctl" "${SWEEP[@]}" --local --follow)
COLD_DIGEST=$(digest_of "$COLD_OUT")
LOCAL_DIGEST=$(digest_of "$LOCAL_OUT")
echo "daemon digest: $COLD_DIGEST"
echo "local digest:  $LOCAL_DIGEST"
[ -n "$COLD_DIGEST" ] || { echo "FAIL: no daemon digest"; exit 1; }
[ "$COLD_DIGEST" = "$LOCAL_DIGEST" ] \
    || { echo "FAIL: daemon digest differs from --local"; exit 1; }
echo "$COLD_OUT" | grep '^served:' | grep -qE 'store=0( |$)' \
    || { echo "FAIL: the cold sweep was served from the store"; \
         exit 1; }

echo "== a restarted daemon re-serves it from its store =="
"$BUILD_DIR/mtvctl" --socket "$SOCKET" shutdown > /dev/null
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || break
    sleep 0.1
done
DAEMON_PID=$(start_daemon "$SOCKET" --store "$STORE")
WARM_OUT=$("$BUILD_DIR/mtvctl" --socket "$SOCKET" "${SWEEP[@]}" --follow)
WARM_DIGEST=$(digest_of "$WARM_OUT")
SERVED=$(echo "$WARM_OUT" | grep '^served:')
echo "restarted: $SERVED digest=$WARM_DIGEST"
[ "$WARM_DIGEST" = "$LOCAL_DIGEST" ] \
    || { echo "FAIL: restarted daemon digest differs"; exit 1; }
echo "$SERVED" | grep -qE 'simulated=0( |$)' \
    || { echo "FAIL: the restarted daemon re-simulated points"; \
         exit 1; }
if ! diff <(echo "$WARM_OUT" | grep '^point ' | sed 's/ (store)$//') \
          <(echo "$LOCAL_OUT" | grep '^point '); then
    echo "FAIL: the daemon's --follow dump differs from --local's"
    exit 1
fi
echo "$WARM_OUT" | grep -q '^point ' \
    || { echo "FAIL: --follow printed no points"; exit 1; }

echo "== a routing daemon in front of the node folds it too =="
"$BUILD_DIR/mtvd" --route "$SOCKET" --socket "$ROUTER" \
    >> "$WORK/router.log" 2>&1 &
ROUTER_PID=$!
for _ in $(seq 1 50); do
    if "$BUILD_DIR/mtvctl" --socket "$ROUTER" ping > /dev/null 2>&1; then
        break
    fi
    sleep 0.1
done
ROUTED_OUT=$("$BUILD_DIR/mtvctl" --socket "$ROUTER" "${SWEEP[@]}")
ROUTED_DIGEST=$(digest_of "$ROUTED_OUT")
echo "routed digest: $ROUTED_DIGEST"
[ "$ROUTED_DIGEST" = "$LOCAL_DIGEST" ] \
    || { echo "FAIL: routed digest $ROUTED_DIGEST != $LOCAL_DIGEST"; \
         cat "$WORK/router.log"; exit 1; }

echo "PASS: wire smoke"
