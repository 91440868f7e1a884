#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks with JSON output and assembles them
# into committed JSON documents:
#   BENCH_prefetch.json   — fetch-pipeline sweeps (ISSUE 1: e1, e10)
#   BENCH_membership.json — membership refresh sweeps (ISSUE 2: e13)
#   BENCH_recovery.json   — WAL/checkpoint recovery sweeps (ISSUE 4: e14)
#   BENCH_migration.json  — placement/migration sweeps (ISSUE 5: e15)
#   BENCH_hotpath.json    — wall-clock microbench of the event/RPC hot path
#                           (ISSUE 6: bench/micro; gate on allocs_per_* only,
#                           wall_ns_* is informational — see metrics_diff.py)
#   BENCH_scale.json      — population-scale workload sweep, 1k -> 100k
#                           sessions x admission policy (ISSUE 8: e18;
#                           latency percentiles and goodput-vs-offered-load
#                           curves, all simulated time)
#   BENCH_orset.json      — multi-master OR-Set vs home-primary availability
#                           sweep under partition episodes (ISSUE 9: e19;
#                           availability, staleness windows, merge cost —
#                           all simulated time)
#   BENCH_storage.json    — block storage engine sweeps (ISSUE 10: e20;
#                           recovery-vs-size at a fixed WAL tail, block
#                           engine on/off, and the fixed-budget cache sweep
#                           — all simulated time)
#
# Usage: scripts/bench_json.sh [build-dir] [prefetch-out] [membership-out] \
#                              [recovery-out] [migration-out] [hotpath-out] \
#                              [scale-out] [orset-out] [storage-out]

set -euo pipefail
build_dir="${1:-build}"
prefetch_out="${2:-BENCH_prefetch.json}"
membership_out="${3:-BENCH_membership.json}"
recovery_out="${4:-BENCH_recovery.json}"
migration_out="${5:-BENCH_migration.json}"
hotpath_out="${6:-BENCH_hotpath.json}"
scale_out="${7:-BENCH_scale.json}"
orset_out="${8:-BENCH_orset.json}"
storage_out="${9:-BENCH_storage.json}"

if [[ ! -d "${build_dir}/bench" ]]; then
  echo "error: ${build_dir}/bench not found — configure and build first:" >&2
  echo "  cmake -B ${build_dir} && cmake --build ${build_dir} -j" >&2
  exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

run_bench() {
  local bench="$1"
  local bin="${build_dir}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not found or not executable" >&2
    exit 1
  fi
  echo "running ${bench}..." >&2
  "${bin}" --benchmark_format=json \
    >"${tmp}/$(basename "${bench}").json" 2>/dev/null
}

run_bench bench_e1_latency
run_bench bench_e10_scale
run_bench bench_e13_membership
run_bench bench_e14_recovery
run_bench bench_e15_migration
run_bench micro/bench_micro_hotpath
run_bench bench_e18_scale
run_bench bench_e19_orset
run_bench bench_e20_storage

# One top-level object per output file, keyed by bench binary, each value
# the unmodified google-benchmark JSON document.
{
  echo '{'
  echo '  "bench_e1_latency":'
  cat "${tmp}/bench_e1_latency.json"
  echo '  ,'
  echo '  "bench_e10_scale":'
  cat "${tmp}/bench_e10_scale.json"
  echo '}'
} >"${prefetch_out}"
echo "wrote ${prefetch_out}" >&2

{
  echo '{'
  echo '  "bench_e13_membership":'
  cat "${tmp}/bench_e13_membership.json"
  echo '}'
} >"${membership_out}"
echo "wrote ${membership_out}" >&2

{
  echo '{'
  echo '  "bench_e14_recovery":'
  cat "${tmp}/bench_e14_recovery.json"
  echo '}'
} >"${recovery_out}"
echo "wrote ${recovery_out}" >&2

{
  echo '{'
  echo '  "bench_e15_migration":'
  cat "${tmp}/bench_e15_migration.json"
  echo '}'
} >"${migration_out}"
echo "wrote ${migration_out}" >&2

{
  echo '{'
  echo '  "bench_micro_hotpath":'
  cat "${tmp}/bench_micro_hotpath.json"
  echo '}'
} >"${hotpath_out}"
echo "wrote ${hotpath_out}" >&2

{
  echo '{'
  echo '  "bench_e18_scale":'
  cat "${tmp}/bench_e18_scale.json"
  echo '}'
} >"${scale_out}"
echo "wrote ${scale_out}" >&2

{
  echo '{'
  echo '  "bench_e19_orset":'
  cat "${tmp}/bench_e19_orset.json"
  echo '}'
} >"${orset_out}"
echo "wrote ${orset_out}" >&2

{
  echo '{'
  echo '  "bench_e20_storage":'
  cat "${tmp}/bench_e20_storage.json"
  echo '}'
} >"${storage_out}"
echo "wrote ${storage_out}" >&2
