#!/usr/bin/env bash
# Golden manifest: one SHA-256 per output stream of every apmbench front
# end at -quick fidelity, so a refactor can prove it moved no byte.
#
#   scripts/golden_manifest.sh write          # regenerate the manifest
#   scripts/golden_manifest.sh check          # verify at -parallel 1
#   PARALLEL=8 scripts/golden_manifest.sh check
#   APMBENCH=/path/to/apmbench scripts/golden_manifest.sh write
#
# Covered: -figure all, -figure ablation-all, -figure apm-dashboard,
# every examples/scenarios/*.json, a multi-figure CSV dispatch
# (-figure 15,17 -format csv), one ablation alone on a non-node X axis
# (-figure ablation-connections) and -explain cassandra:2:R. stdout (the
# figures) and stderr (the plan-ordered progress lines) are hashed
# separately; both must be byte-identical at any -parallel width.
#
# Regenerating: only a change that deliberately moves modeled numbers
# rewrites the manifest, and it must say so under "Behavior changes to
# remember" in ROADMAP.md. Write it from the binary built from the commit
# before the change, then run check on the change itself; a mismatch
# names the output that moved.
#
# Without APMBENCH the script builds ./cmd/apmbench into a temp dir.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$mode" in
  write|check) ;;
  *) echo "usage: $0 write|check" >&2; exit 2 ;;
esac
manifest="scripts/golden_manifest.sha256"
parallel="${PARALLEL:-1}"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

bin="${APMBENCH:-}"
if [ -z "$bin" ]; then
  bin="$tmp/apmbench"
  go build -o "$bin" ./cmd/apmbench
fi

# run NAME ARGS... executes one front end and appends the hashes of its
# stdout and stderr to the current manifest.
run() {
  local name="$1"
  shift
  echo "== $name" >&2
  "$bin" -quick -parallel "$parallel" "$@" > "$tmp/$name.stdout" 2> "$tmp/$name.stderr"
  (cd "$tmp" && sha256sum "$name.stdout" "$name.stderr") >> "$tmp/manifest"
}

: > "$tmp/manifest"
run figure-all -figure all
run ablation-all -figure ablation-all
run apm-dashboard -figure apm-dashboard
for s in examples/scenarios/*.json; do
  run "scenario-$(basename "$s" .json)" -scenario "$s"
done
run figure-15-17-csv -figure 15,17 -format csv
run ablation-connections -figure ablation-connections
run explain-cassandra-2-R -explain cassandra:2:R

if [ "$mode" = write ]; then
  cp "$tmp/manifest" "$manifest"
  echo "wrote $manifest ($(wc -l < "$manifest") entries)" >&2
  exit 0
fi

if ! diff -u "$manifest" "$tmp/manifest"; then
  echo "golden manifest mismatch at -parallel $parallel" >&2
  exit 1
fi
echo "golden manifest matches at -parallel $parallel ($(wc -l < "$manifest") entries)" >&2
