#!/usr/bin/env bash
# Emit a JSON perf baseline (ns/op, B/op, allocs/op) for the tracked
# hot-path benchmarks, so future PRs have a trajectory to diff against:
#
#   scripts/bench_baseline.sh             # writes BENCH_PR29.json
#   scripts/bench_baseline.sh out.json    # custom path
#   BENCHTIME=1000000x scripts/bench_baseline.sh   # higher fidelity
#
# allocs/op is exact at any BENCHTIME; ns/op is only meaningful on an
# otherwise idle machine. Four benches do a fixed amount of work per op
# and run a fixed count whatever BENCHTIME says, so their B/op compares
# across runs: BenchmarkSSTableMerge and BenchmarkSSTableMergeDisjoint
# compact 100k entries per op (20 iterations), BenchmarkLSMLoadDirect
# loads and seals 100k records in a deferred LSM load (10 iterations), and
# BenchmarkBTreeSeal builds a 100k-record B-tree in the Voldemort and
# MySQL page shapes (10 iterations each). Five more do the same work in
# every op whatever the count, so their B/op compares across BENCHTIMEs
# too: BenchmarkLSMScan and BenchmarkShardedScan return one page of rows
# per op, and BenchmarkMergeRuns/runs={2,12,72} merge one 60-row page.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${1:-BENCH_PR29.json}"
bt="${BENCHTIME:-100000x}"

{
  go test -run '^$' -bench 'BenchmarkEngineSchedule$|BenchmarkLSMGet$|BenchmarkLSMScan$|BenchmarkLSMInsert$|BenchmarkBTreeInsert$|BenchmarkBTreeBulkLoad$|BenchmarkBTreeUpdate$' -benchtime "$bt" -benchmem .
  go test -run '^$' -bench 'BenchmarkLSMLoadDirect$|BenchmarkBTreeSeal$' -benchtime 10x -benchmem .
  go test -run '^$' -bench 'BenchmarkProcSleepSwitch$|BenchmarkResourceUse$|BenchmarkProcSpawn$' -benchtime "$bt" -benchmem ./internal/sim
  go test -run '^$' -bench 'BenchmarkStoreKey$|BenchmarkStoreAppendKey$|BenchmarkMakeFields$|BenchmarkMergeRuns$' -benchtime "$bt" -benchmem ./internal/store
  go test -run '^$' -bench 'BenchmarkMemtablePut$|BenchmarkMemtableGet$|BenchmarkMemtableScan$' -benchtime "$bt" -benchmem ./internal/memtable
  go test -run '^$' -bench 'BenchmarkSSTableMerge$|BenchmarkSSTableMergeDisjoint$' -benchtime 20x -benchmem ./internal/sstable
  go test -run '^$' -bench 'BenchmarkSlabAppend$|BenchmarkShapeIntern$' -benchtime "$bt" -benchmem ./internal/slab
  go test -run '^$' -bench 'BenchmarkAppendPeriodic$' -benchtime "$bt" -benchmem ./internal/wal
  go test -run '^$' -bench 'BenchmarkQueryFilterAgg$' -benchtime "$bt" -benchmem ./internal/query
  go test -run '^$' -bench 'BenchmarkShardedScan$' -benchtime "$bt" -benchmem ./internal/stores
} | awk -v benchtime="$bt" '
  /^Benchmark/ {
    name = $1
    sub(/^Benchmark/, "", name)
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
      if ($i == "ns/op")     ns = $(i-1)
      if ($i == "B/op")      bytes = $(i-1)
      if ($i == "allocs/op") allocs = $(i-1)
    }
    lines[n++] = sprintf("    \"%s\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs)
  }
  END {
    printf "{\n  \"benchtime\": \"%s\",\n  \"benchmarks\": {\n", benchtime
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n-1 ? "," : "")
    printf "  }\n}\n"
  }
' > "$out"
echo "wrote $out" >&2
cat "$out" >&2
