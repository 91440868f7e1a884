#!/usr/bin/env bash
# Which lines of the library does no benchmark traffic execute?
#
# Builds the benches and perfbench with --coverage (Debug, so every source
# line keeps its own counter) under OUT_DIR, runs scripts/bench_json.sh (all
# 25 bench binaries) and each perfbench workload for 1 s at seed 1, merges
# the gcov --json-format line counts of every file under src/, taking the
# maximum over both builds, and prints, per file, the lines no run executed.
# Lines that compile to no code (declarations, templates never instantiated)
# have no counter and are never listed. A file whose lines all ran is not
# printed. This is a census, not a gate: it always exits 0 once the runs
# complete.
#
# Usage: scripts/traffic_coverage.sh OUT_DIR
# Needs cmake, g++ and its gcov; downloads nothing. Takes ~9 min on 4 cores.

set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 OUT_DIR" >&2
  exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$1"
out_dir="$(cd "$1" && pwd)"
jobs="$(nproc)"
coverage=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
  -DCMAKE_EXE_LINKER_FLAGS=--coverage -DWEAKSET_WERROR=OFF)

bench_build="${out_dir}/bench_build"
perf_build="${out_dir}/perfbench_build"
cmake -S "${root}" -B "${bench_build}" "${coverage[@]}" \
  -DWEAKSET_BUILD_TESTS=OFF -DWEAKSET_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${bench_build}" -j "${jobs}" >/dev/null
cmake -S "${root}/perfbench" -B "${perf_build}" "${coverage[@]}" >/dev/null
cmake --build "${perf_build}" -j "${jobs}" --target weakset_perfbench \
  >/dev/null

# Counters accumulate in the .gcda files: start from zero.
find "${bench_build}" "${perf_build}" -name '*.gcda' -delete

runs="${out_dir}/runs"
mkdir -p "${runs}"
bench_json=()
for name in prefetch membership recovery migration hotpath scale orset \
  storage paper; do
  bench_json+=("${runs}/${name}.json")
done
(cd "${root}" && scripts/bench_json.sh "${bench_build}" "${bench_json[@]}")
for workload in population dynamic_drain durable_churn; do
  echo "running perfbench ${workload}..." >&2
  "${perf_build}/weakset_perfbench" --workload "${workload}" --seed 1 \
    --seconds 1 --trace 0 >"${runs}/perfbench_${workload}.json"
done

# One gcov JSON document per translation unit of both builds: the library's
# own units, and the bench and perfbench units, which hold the code they
# inline from src/ headers. gcov reads the .gcno beside each .gcda; a unit
# no run touched has no .gcda and reads as all zero.
gcov_json="${out_dir}/gcov"
rm -rf "${gcov_json}"
mkdir -p "${gcov_json}"
index=0
while IFS= read -r gcno; do
  index=$((index + 1))
  (cd "$(dirname "${gcno}")" &&
    gcov --json-format --stdout "$(basename "${gcno}")" 2>/dev/null) \
    >"${gcov_json}/${index}.json" || true
done < <(find "${bench_build}" "${perf_build}" -name '*.gcno' | sort)

python3 - "${root}" "${gcov_json}" <<'EOF'
import json
import os
import sys

root, gcov_dir = sys.argv[1], sys.argv[2]
src = os.path.join(root, "src") + os.sep
counts = {}  # file -> {line: max count over every unit of both builds}
decoder = json.JSONDecoder()
for name in os.listdir(gcov_dir):
    with open(os.path.join(gcov_dir, name)) as handle:
        text = handle.read()
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text):
            break
        doc, pos = decoder.raw_decode(text, pos)
        cwd = doc.get("current_working_directory", "")
        for entry in doc.get("files", []):
            path = os.path.normpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src):
                continue
            lines = counts.setdefault(os.path.relpath(path, root), {})
            for line in entry["lines"]:
                number = line["line_number"]
                lines[number] = max(lines.get(number, 0), line["count"])


def ranges(numbers):
    spans = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


total = unexecuted = 0
for path in sorted(counts):
    lines = counts[path]
    missed = sorted(n for n, count in lines.items() if count == 0)
    total += len(lines)
    unexecuted += len(missed)
    if missed:
        print(f"{path}: {ranges(missed)}")
print(f"{unexecuted} of {total} instrumented lines under src/ "
      f"in {len(counts)} files ran in no run", file=sys.stderr)
EOF
