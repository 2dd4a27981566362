#!/usr/bin/env bash
# Smoke run of the served binaries end to end: starts cdbp_served on a Unix
# socket, replays stream_replay's 2000-item demo trace through it with
# --connect (one PLACE round trip per item), replays the same trace locally,
# then stops the daemon with SIGTERM. Checks that the replay and the daemon
# exit 0, that every item was served as a standalone PLACE, and that the
# served usage equals the local one. Invoked by ctest (tests/CMakeLists.txt):
#
#   tests/serve_smoke.sh <cdbp_served> <stream_replay> <work-dir>
set -euo pipefail

served_bin=$1
replay_bin=$2
work_dir=$3
items=2000

mkdir -p "$work_dir"
cd "$work_dir"
sock="$work_dir/smoke.sock"
rm -f "$sock" served.out replay.out local.out

"$served_bin" --unix "$sock" --threads 2 > served.out 2>&1 &
daemon=$!
trap 'kill "$daemon" 2>/dev/null || true' EXIT

# The daemon prints "serving on" once its listeners accept connections.
for _ in $(seq 1 200); do
  grep -q "^serving on" served.out && break
  sleep 0.05
done
if [ ! -S "$sock" ] || ! grep -q "^serving on" served.out; then
  echo "cdbp_served is not serving on $sock:"
  cat served.out
  exit 1
fi

replay_rc=0
"$replay_bin" --connect "unix:$sock" > replay.out 2>&1 || replay_rc=$?
"$replay_bin" > local.out 2>&1

kill -TERM "$daemon"
daemon_rc=0
wait "$daemon" || daemon_rc=$?

fail() {
  echo "serve smoke: $*"
  echo "--- replay --connect ---"; cat replay.out
  echo "--- local replay ---"; cat local.out
  echo "--- cdbp_served ---"; head -5 served.out
  exit 1
}

[ "$replay_rc" -eq 0 ] || fail "stream_replay --connect exited with $replay_rc"
[ "$daemon_rc" -eq 0 ] || fail "cdbp_served exited with $daemon_rc"
grep -q "^served: $items placements" replay.out ||
  fail "replay did not print 'served: $items placements'"
grep -q "^drained: $items placements (0 batches)" served.out ||
  fail "daemon did not print 'drained: $items placements (0 batches)'"

served_usage=$(sed -n 's/^served: [0-9]* placements, usage \([^ ]*\).*/\1/p' replay.out)
local_usage=$(sed -n 's/^policy .*: usage \([^ ]*\).*/\1/p' local.out)
[ -n "$served_usage" ] || fail "no served usage figure"
[ "$served_usage" = "$local_usage" ] ||
  fail "served usage $served_usage differs from local usage $local_usage"
echo "serve smoke: $items placements served, usage $served_usage matches local"
