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
#                           engine on/off, the fixed-budget cache sweep, and
#                           OR-Set recovery vs dot-op history — all
#                           simulated time)
#   BENCH_paper.json      — the paper's own figures and experiments: FIG1-FIG6,
#                           E2-E9, E11 and E12, every case of each sweep (all
#                           simulated time, except FIG2's evaluation cost,
#                           which is wall-clock: gate it with
#                           --ignore '\]\.iterations$' besides real_time)
#
# Usage: scripts/bench_json.sh [build-dir] [prefetch-out] [membership-out] \
#                              [recovery-out] [migration-out] [hotpath-out] \
#                              [scale-out] [orset-out] [storage-out] \
#                              [paper-out]

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
paper_out="${10:-BENCH_paper.json}"

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

paper_benches=(
  bench_fig1_immutable bench_fig2_reachable bench_fig3_immutable_failures
  bench_fig4_snapshot bench_fig5_growonly bench_fig6_optimistic
  bench_e2_availability bench_e3_strong_cost bench_e4_staleness
  bench_e5_crossover bench_e6_ordering bench_e7_variants
  bench_e8_order_constraint bench_e9_caching bench_e11_index
  bench_e12_deadline
)

run_bench bench_e1_latency
run_bench bench_e10_scale
run_bench bench_e13_membership
run_bench bench_e14_recovery
run_bench bench_e15_migration
run_bench micro/bench_micro_hotpath
run_bench bench_e18_scale
run_bench bench_e19_orset
run_bench bench_e20_storage
for bench in "${paper_benches[@]}"; do run_bench "${bench}"; done

# Writes one top-level object to $1, keyed by each remaining argument's bench
# binary, each value the unmodified google-benchmark JSON document.
assemble() {
  local out="$1"
  shift
  local sep=''
  {
    echo '{'
    for bench in "$@"; do
      if [[ -n "${sep}" ]]; then echo "${sep}"; fi
      echo "  \"${bench}\":"
      cat "${tmp}/${bench}.json"
      sep='  ,'
    done
    echo '}'
  } >"${out}"
  echo "wrote ${out}" >&2
}

assemble "${prefetch_out}" bench_e1_latency bench_e10_scale
assemble "${membership_out}" bench_e13_membership
assemble "${recovery_out}" bench_e14_recovery
assemble "${migration_out}" bench_e15_migration
assemble "${hotpath_out}" bench_micro_hotpath
assemble "${scale_out}" bench_e18_scale
assemble "${orset_out}" bench_e19_orset
assemble "${storage_out}" bench_e20_storage
assemble "${paper_out}" "${paper_benches[@]}"
