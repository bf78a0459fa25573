#!/usr/bin/env bash
# simphonyd smoke test: start the daemon on a Unix socket, drive a
# simulate and an explore through simphony_client, and require both
# served results to be byte-identical to the one-shot CLI's --json
# output.  Then ask for a graceful shutdown and require the daemon to
# exit cleanly with its cost cache persisted (loadable by the one-shot
# CLI — the two sides share the SPCC store).  Finally restart it, hold
# an idle client connection open, send SIGTERM, and require the daemon
# to exit within 5 s anyway.
#
# usage: scripts/daemon_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/example_simphony_cli"
DAEMON="$BUILD_DIR/example_simphonyd"
CLIENT="$BUILD_DIR/example_simphony_client"
for binary in "$CLI" "$DAEMON" "$CLIENT"; do
  [[ -x "$binary" ]] || { echo "error: $binary not built" >&2; exit 1; }
done

WORK_DIR="$(mktemp -d)"
DAEMON_PID=""
IDLE_PID=""
cleanup() {
  [[ -n "$DAEMON_PID" ]] && kill "$DAEMON_PID" 2> /dev/null || true
  [[ -n "$IDLE_PID" ]] && kill "$IDLE_PID" 2> /dev/null || true
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

SOCK="unix:$WORK_DIR/simphonyd.sock"
CACHE="$WORK_DIR/costs.spcc"

# start_daemon LOG [ARGS...]: launch simphonyd on $SOCK, wait until it
# listens, and leave its pid in DAEMON_PID.
start_daemon() {
  local log="$1"
  shift
  "$DAEMON" --listen "$SOCK" "$@" 2> "$log" &
  DAEMON_PID=$!
  for _ in $(seq 50); do
    grep -q "listening on" "$log" 2> /dev/null && return 0
    kill -0 "$DAEMON_PID" 2> /dev/null || {
      echo "FAIL: simphonyd died on startup" >&2
      cat "$log" >&2
      exit 1
    }
    sleep 0.1
  done
}

start_daemon "$WORK_DIR/daemon.log" --cache-file "$CACHE"

# One mapped simulate and one costed sweep, as typed request JSON.
cat > "$WORK_DIR/simulate.json" <<'JSON'
{"models": [{"spec": "gemm:64x32x64"}], "mapping": "greedy",
 "num_threads": 1}
JSON
cat > "$WORK_DIR/explore.json" <<'JSON'
{"mapping": "greedy", "num_threads": 1,
 "models": [{"spec": "gemm:64x32x64"}],
 "sweep": {"tiles": [1, 2], "wavelengths": [2, 4]}}
JSON

# The explore runs first, on the daemon's still-fresh cache, so even
# its embedded cost_cache counters match a fresh one-shot process (the
# simulate document embeds no counters, so it can follow a warm cache).
"$CLIENT" --connect "$SOCK" --op explore \
    --request "$WORK_DIR/explore.json" > "$WORK_DIR/served_dse.json"
"$CLI" --model gemm:64x32x64 --mapping greedy \
    --sweep tiles=1,2 --sweep wavelengths=2,4 --threads 1 --json \
    > "$WORK_DIR/oneshot_dse.json"
diff -u "$WORK_DIR/oneshot_dse.json" "$WORK_DIR/served_dse.json" || {
  echo "FAIL: served explore differs from one-shot CLI --json" >&2
  exit 1
}
echo "ok: served explore == one-shot CLI --json"

"$CLIENT" --connect "$SOCK" --op simulate \
    --request "$WORK_DIR/simulate.json" > "$WORK_DIR/served_sim.json"
"$CLI" --model gemm:64x32x64 --mapping greedy --json \
    > "$WORK_DIR/oneshot_sim.json"
diff -u "$WORK_DIR/oneshot_sim.json" "$WORK_DIR/served_sim.json" || {
  echo "FAIL: served simulate differs from one-shot CLI --json" >&2
  exit 1
}
echo "ok: served simulate == one-shot CLI --json"

# Repeat the sweep: the warm serve must report zero misses.
"$CLIENT" --connect "$SOCK" --op explore \
    --request "$WORK_DIR/explore.json" > "$WORK_DIR/served_warm.json"
grep -q '"misses": 0' "$WORK_DIR/served_warm.json" || {
  echo "FAIL: repeated explore was not served from the warm cache" >&2
  exit 1
}
echo "ok: repeated explore served warm (0 misses)"

# Graceful shutdown: clean exit, cache persisted and readable by the
# one-shot CLI.
"$CLIENT" --connect "$SOCK" --op shutdown
wait "$DAEMON_PID"
DAEMON_PID=""
grep -q "cost cache saved to" "$WORK_DIR/daemon.log" || {
  echo "FAIL: daemon log never reported the saved cache" >&2
  cat "$WORK_DIR/daemon.log" >&2
  exit 1
}
[[ -s "$CACHE" ]] || { echo "FAIL: $CACHE missing or empty" >&2; exit 1; }
# (sweep form: only the sweep path reports the loaded-entry count)
"$CLI" --model gemm:64x32x64 --mapping greedy --sweep tiles=1,2 \
    --cache-file "$CACHE" --json > /dev/null 2> "$WORK_DIR/reload.log"
grep -q "cached cost entr" "$WORK_DIR/reload.log" || {
  echo "FAIL: one-shot CLI did not load the daemon's cache" >&2
  cat "$WORK_DIR/reload.log" >&2
  exit 1
}
echo "ok: graceful shutdown persisted the cache; one-shot CLI loads it"

# SIGTERM with an idle client connected: the client pings (so the daemon
# has accepted it), then sends nothing more and waits for the daemon to
# hang up.  The daemon must still exit within 5 s.
start_daemon "$WORK_DIR/daemon_idle.log"
python3 - "${SOCK#unix:}" > "$WORK_DIR/idle.out" <<'PY' &
import socket, sys
client = socket.socket(socket.AF_UNIX)
client.settimeout(30)
client.connect(sys.argv[1])
client.sendall(b'{"op": "ping"}\n')
replies = client.makefile("rb")
replies.readline()
print("connected", flush=True)
replies.readline()  # idle until the daemon closes the connection
PY
IDLE_PID=$!
for _ in $(seq 50); do
  grep -q connected "$WORK_DIR/idle.out" 2> /dev/null && break
  sleep 0.1
done
grep -q connected "$WORK_DIR/idle.out" || {
  echo "FAIL: idle client never got its ping answered" >&2
  exit 1
}
kill -TERM "$DAEMON_PID"
for _ in $(seq 50); do
  kill -0 "$DAEMON_PID" 2> /dev/null || break
  sleep 0.1
done
if kill -0 "$DAEMON_PID" 2> /dev/null; then
  echo "FAIL: simphonyd still running 5 s after SIGTERM with an idle" \
       "client connected" >&2
  exit 1
fi
wait "$DAEMON_PID"
DAEMON_PID=""
wait "$IDLE_PID"
IDLE_PID=""
echo "ok: SIGTERM with an idle client connected exits within 5 s"

echo "daemon smoke test passed"
