#!/usr/bin/env bash
# Runs one apmbench front end through the cell farm: the arguments go to a
# coordinator (apmbench -serve 127.0.0.1:PORT ...), and two localhost
# workers (apmbench -join) execute its cells. The coordinator's stdout and
# stderr are this script's, so its output must be byte-identical to a
# single-process run. That makes the script a drop-in APMBENCH binary:
#
#   APMBENCH=scripts/farm_apmbench.sh scripts/golden_manifest.sh check
#   APMBENCH=scripts/farm_apmbench.sh PARALLEL=8 scripts/golden_manifest.sh check
#
# Worker logs go to files in a temp dir, kept (and named on stderr) only
# when the coordinator fails. A worker that never gets a lease — -explain
# runs its cell in process, and a worker may dial after a short run has
# finished — is not an error. ./cmd/apmbench is built into the temp dir on
# every call (the Go build cache makes repeats cheap).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"

tmp="$(mktemp -d)"
(cd "$root" && go build -o "$tmp/apmbench" ./cmd/apmbench)
bin="$tmp/apmbench"
addr="127.0.0.1:$((20000 + RANDOM % 20000))"

"$bin" -serve "$addr" "$@" &
coord=$!

# join retries until the coordinator listens and stops once it has exited.
join() {
  while kill -0 "$coord" 2>/dev/null; do
    "$bin" -join "$addr" && return 0
    sleep 0.2
  done
}
join 1 >> "$tmp/worker1.log" 2>&1 & w1=$!
join 2 >> "$tmp/worker2.log" 2>&1 & w2=$!

status=0
wait "$coord" || status=$?
# A drained worker has already exited; one still dialling, or reconnecting
# to a coordinator that exited without draining, is stopped.
pkill -P "$w1" 2>/dev/null || true
pkill -P "$w2" 2>/dev/null || true
wait "$w1" "$w2" || true

if [ "$status" -ne 0 ]; then
  rm -f "$bin"
  echo "farm_apmbench: coordinator exited $status; worker logs in $tmp" >&2
  exit "$status"
fi
rm -rf "$tmp"
