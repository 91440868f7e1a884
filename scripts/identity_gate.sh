#!/usr/bin/env bash
# The refactor oracle: reruns every simulated-time baseline and telemetry
# export from one build and checks each against its committed copy.
#
#   - scripts/bench_json.sh writes the nine benchmark documents into OUT_DIR
#     as fresh_<name>.json;
#   - the eight simulated-time ones must reproduce the committed
#     BENCH_<name>.json exactly (metrics_diff.py --require-equal '.*'),
#     ignoring only the host's wall-clock fields. BENCH_paper.json also
#     ignores FIG2's iteration count, which google-benchmark sizes from wall
#     time (anchored on the field: every other row name contains
#     "iterations:1"). fresh_hotpath.json is written but not checked here:
#     BENCH_hotpath.json is gated in a Release build with asserts compiled
#     out, the configuration it was recorded in;
#   - the six bench and two test --metrics-out exports, written into OUT_DIR
#     as <binary>.json, must match bench/telemetry/ byte for byte.
#
# Exits 0 when everything matches, 1 naming every file that differs, and 2
# when the benchmarks cannot be run at all.
#
# Usage: scripts/identity_gate.sh BUILD_DIR OUT_DIR

set -uo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
build_dir="$1"
out_dir="$2"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "${out_dir}"

# bench_json.sh's output order.
benches=(prefetch membership recovery migration hotpath scale orset storage
  paper)
fresh=()
for name in "${benches[@]}"; do fresh+=("${out_dir}/fresh_${name}.json"); done
if ! "${root}/scripts/bench_json.sh" "${build_dir}" "${fresh[@]}"; then
  echo "identity gate: scripts/bench_json.sh failed" >&2
  exit 2
fi

differs=()
wall='real_time|cpu_time|\.context\.'
for name in "${benches[@]}"; do
  [[ "${name}" == hotpath ]] && continue
  ignore="${wall}"
  [[ "${name}" == paper ]] && ignore="${wall}|\]\.iterations$"
  if ! python3 "${root}/scripts/metrics_diff.py" \
    --baseline-dir "${root}" "BENCH_${name}.json" \
    "${out_dir}/fresh_${name}.json" --ignore "${ignore}" \
    --require-equal '.*' --quiet; then
    differs+=("BENCH_${name}.json (fresh: ${out_dir}/fresh_${name}.json)")
  fi
done

exports=(bench/bench_e13_membership bench/bench_e14_recovery
  bench/bench_e15_migration bench/bench_e18_scale bench/bench_e19_orset
  bench/bench_e20_storage tests/conformance_matrix_test
  tests/chaos_read_test)
for bin in "${exports[@]}"; do
  name="$(basename "${bin}")"
  out="${out_dir}/${name}.json"
  echo "exporting ${name} telemetry..." >&2
  if ! "${build_dir}/${bin}" --metrics-out="${out}" >/dev/null 2>&1; then
    differs+=("bench/telemetry/${name}.json (${build_dir}/${bin} failed)")
  elif ! cmp -s "${out}" "${root}/bench/telemetry/${name}.json"; then
    differs+=("bench/telemetry/${name}.json (fresh: ${out})")
  fi
done

if [[ ${#differs[@]} -gt 0 ]]; then
  echo "identity gate: ${#differs[@]} file(s) differ:" >&2
  printf '  %s\n' "${differs[@]}" >&2
  exit 1
fi
echo "identity gate: 8 baselines and 8 telemetry exports identical" >&2
