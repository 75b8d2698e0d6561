#!/usr/bin/env bash
# Multi-process cluster smoke (DESIGN.md §15): launches the ordering
# service and four peers as separate fabricpp_node processes on localhost,
# drives SmallBank at them with fabricpp_load, and asserts convergence —
# every peer reporting the identical (height, tip hash, state fingerprint)
# tuple on every channel and a non-trivial chain. The cluster runs twice,
# with one channel and then with two; with two, every peer and the orderer
# run one lane per channel. Mirrors the in-process
# SocketHostTest.SmallbankClusterConverges{,OnTwoChannels}, but across real
# process boundaries, which is what CI runs.
#
# The one-channel pass also crash-tests recovery: it runs the load longer,
# kills peer 1 with SIGKILL a few seconds in and restarts it with the same
# command. The new process starts with empty memory on the same port and
# must catch up from the orderer (which keeps every block it dispatched)
# to the cluster's tuple before the load driver's convergence check, and
# its log must show that it caught up (it answers proposals with BUSY
# until then).
#
# Before any cluster starts, the daemon must refuse a deployment file with
# an out-of-range value (smallbank_users = 0): exit status 1 and a message
# naming the key, not a crash. Likewise fabricpp_cli must refuse a flag
# value that is not a whole number (--seconds=abc) with exit status 1
# instead of running a zero-second experiment.
#
# Usage: scripts/socket_smoke.sh [BUILD_DIR] (default: build)
set -u

BUILD_DIR="${1:-build}"
NODE_BIN="$BUILD_DIR/examples/fabricpp_node"
LOAD_BIN="$BUILD_DIR/examples/fabricpp_load"
CLI_BIN="$BUILD_DIR/examples/fabricpp_cli"
SECONDS_TO_RUN="${FABRICPP_SMOKE_SECONDS:-4}"
# The kill -9 pass: load length, and when peer 1 dies and comes back.
KILL_RUN_SECONDS=8
KILL_AFTER_SECONDS=3
RESTART_AFTER_SECONDS=1
WORK_DIR="$(mktemp -d)"
CONF="$WORK_DIR/cluster.conf"
BASE_PORT="${FABRICPP_SMOKE_BASE_PORT:-7150}"

for bin in "$NODE_BIN" "$LOAD_BIN" "$CLI_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "missing binary: $bin (build the examples first)" >&2
    exit 1
  fi
done

PIDS=()
LOAD_PID=""
cleanup() {
  for pid in $LOAD_PID "${PIDS[@]}"; do
    kill "$pid" 2>/dev/null
  done
  for pid in $LOAD_PID "${PIDS[@]}"; do
    wait "$pid" 2>/dev/null
  done
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

echo "== a bad deployment file is refused =="
printf 'workload = smallbank\nsmallbank_users = 0\n' > "$WORK_DIR/bad.conf"
"$NODE_BIN" --config "$WORK_DIR/bad.conf" --role orderer \
  > "$WORK_DIR/bad.log" 2>&1
BAD_STATUS=$?
if [ "$BAD_STATUS" -ne 1 ] || ! grep -q smallbank_users "$WORK_DIR/bad.log"; then
  echo "fabricpp_node exited $BAD_STATUS on smallbank_users = 0" \
    "(want 1 and a message naming the key):" >&2
  cat "$WORK_DIR/bad.log" >&2
  exit 1
fi
cat "$WORK_DIR/bad.log"

echo "== a bad flag value is refused =="
"$CLI_BIN" --seconds=abc --system=fabric > "$WORK_DIR/bad_flag.log" 2>&1
BAD_STATUS=$?
if [ "$BAD_STATUS" -ne 1 ] || ! grep -q -- "--seconds" "$WORK_DIR/bad_flag.log"; then
  echo "fabricpp_cli exited $BAD_STATUS on --seconds=abc" \
    "(want 1 and a message naming the flag):" >&2
  cat "$WORK_DIR/bad_flag.log" >&2
  exit 1
fi
head -n 1 "$WORK_DIR/bad_flag.log"

for CHANNELS in 1 2; do
  cat > "$CONF" <<EOF
# Generated by scripts/socket_smoke.sh — 2 orgs x 2 peers + solo orderer.
preset = fabric++
runtime_mode = socket
num_orgs = 2
peers_per_org = 2
num_channels = $CHANNELS
clients_per_channel = 8
client_fire_rate_tps = 64
block_max_transactions = 64
block_timeout_ms = 250
orderer_address = 127.0.0.1:$BASE_PORT
peer_addresses = 127.0.0.1:$((BASE_PORT + 1)),127.0.0.1:$((BASE_PORT + 2)),127.0.0.1:$((BASE_PORT + 3)),127.0.0.1:$((BASE_PORT + 4))
workload = smallbank
smallbank_users = 1000
EOF

  echo "== $CHANNELS channel(s): starting orderer + 4 peers (logs in $WORK_DIR) =="
  "$NODE_BIN" --config "$CONF" --role orderer > "$WORK_DIR/orderer.log" 2>&1 &
  PIDS+=($!)
  sleep 0.3
  for i in 0 1 2 3; do
    "$NODE_BIN" --config "$CONF" --role "peer:$i" > "$WORK_DIR/peer$i.log" 2>&1 &
    PIDS+=($!)
  done

  RUN_SECONDS="$SECONDS_TO_RUN"
  [ "$CHANNELS" -eq 1 ] && RUN_SECONDS="$KILL_RUN_SECONDS"
  echo "== $CHANNELS channel(s): driving smallbank for ${RUN_SECONDS}s =="
  "$LOAD_BIN" --config "$CONF" --seconds "$RUN_SECONDS" --warmup 1 \
    --check --json "$WORK_DIR/load.json" &
  LOAD_PID=$!

  if [ "$CHANNELS" -eq 1 ]; then
    # PIDS is (orderer, peer0, peer1, peer2, peer3). Reap the killed peer
    # so the graceful-exit check below does not wait on its zombie, and
    # put the restarted daemon in its slot so that check covers it.
    sleep "$KILL_AFTER_SECONDS"
    echo "== 1 channel: kill -9 peer 1 (pid ${PIDS[2]}) =="
    kill -9 "${PIDS[2]}"
    wait "${PIDS[2]}" 2>/dev/null
    sleep "$RESTART_AFTER_SECONDS"
    # The restarted daemon appends to the same log; remember where its
    # lines begin.
    RESTART_LINE=$(wc -l < "$WORK_DIR/peer1.log")
    "$NODE_BIN" --config "$CONF" --role "peer:1" >> "$WORK_DIR/peer1.log" 2>&1 &
    PIDS[2]=$!
    echo "== 1 channel: restarted peer 1 (pid ${PIDS[2]}) =="
  fi

  wait "$LOAD_PID"
  STATUS=$?
  LOAD_PID=""

  echo "== $CHANNELS channel(s): load driver exit: $STATUS =="
  cat "$WORK_DIR/load.json" 2>/dev/null

  if [ "$STATUS" -ne 0 ]; then
    echo "== daemon logs ==" >&2
    tail -n 20 "$WORK_DIR"/orderer.log "$WORK_DIR"/peer*.log >&2
    exit "$STATUS"
  fi

  if [ "$CHANNELS" -eq 1 ] &&
     ! tail -n +"$((RESTART_LINE + 1))" "$WORK_DIR/peer1.log" |
       grep -q "caught up on channel 0"; then
    echo "restarted peer 1 never logged that it caught up on channel 0" >&2
    tail -n 20 "$WORK_DIR/peer1.log" >&2
    exit 1
  fi

  # The load driver broadcast SHUTDOWN; daemons must exit gracefully on it.
  DEADLINE=$((SECONDS + 10))
  for pid in "${PIDS[@]}"; do
    while kill -0 "$pid" 2>/dev/null; do
      if [ "$SECONDS" -ge "$DEADLINE" ]; then
        echo "daemon pid $pid did not exit after shutdown broadcast" >&2
        exit 1
      fi
      sleep 0.2
    done
  done
  PIDS=()
  echo "== $CHANNELS channel(s): all daemons exited gracefully =="
done
echo "== smoke PASSED =="
