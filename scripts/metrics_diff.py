#!/usr/bin/env python3
"""Compare two metrics/benchmark JSON snapshots with per-metric tolerances.

Walks both documents in parallel and compares every numeric leaf that exists
at the same path. Arrays of objects carrying a "name" field (google-benchmark
"benchmarks" lists, for example) are matched by name, not position, so
reordering or appending benchmarks never produces spurious diffs. Other
arrays are matched by index.

Exit status: 0 when every compared metric is within tolerance, 1 when any
regressed, 2 on usage/IO errors.

Typical use — compare the simulated-time counters only (wall-clock fields
like real_time/cpu_time are nondeterministic) with a 5% budget:

    scripts/metrics_diff.py BENCH_membership.json fresh.json \
        --only 'counters\\.|iterate_ms|members_shipped|ops_shipped|rpcs' \
        --tolerance 0.05

With --baseline-dir the baseline argument is a bare name resolved inside
that directory, so a gate looping over several committed snapshots states
the checkout root once instead of per file:

    scripts/metrics_diff.py --baseline-dir "$REPO" \\
        BENCH_migration.json fresh_migration.json --tolerance 0.05

Per-metric overrides tighten or loosen individual paths:

    --metric-tolerance 'rpcs$=0.0' --metric-tolerance 'p99=0.10'

--informational marks paths as report-only: they are compared and printed
(prefixed "info") but can never fail the gate. This is how wall-clock
counters ride along with deterministic ones in the same snapshot — the
microbench gate fails on allocs_per_* and merely reports wall_ns_*:

    scripts/metrics_diff.py BENCH_hotpath.json fresh_hotpath.json \\
        --only 'allocs_per_|wall_ns_' --metric-tolerance 'allocs_per_=0.0' \\
        --informational 'wall_ns_'

--require-equal pins paths to tolerance 0 regardless of --tolerance or any
--metric-tolerance override — the shorthand for determinism gates, where a
metric is either byte-for-byte reproduced or the gate fails. CI gates every
simulated-time baseline this way, ignoring only the wall-clock fields:

    scripts/metrics_diff.py BENCH_recovery.json fresh_recovery.json \\
        --ignore 'real_time|cpu_time|\\.context\\.' --require-equal '.*'
"""

import argparse
import json
import os
import re
import sys


def walk(baseline, current, path, pairs):
    """Collects (path, baseline, current) numeric leaf pairs present in both."""
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in baseline:
            if key in current:
                walk(baseline[key], current[key], f"{path}.{key}" if path else key, pairs)
        return
    if isinstance(baseline, list) and isinstance(current, list):
        by_name_b = index_by_name(baseline)
        by_name_c = index_by_name(current)
        if by_name_b is not None and by_name_c is not None:
            for name, item in by_name_b.items():
                if name in by_name_c:
                    walk(item, by_name_c[name], f"{path}[{name}]", pairs)
        else:
            for i, (b, c) in enumerate(zip(baseline, current)):
                walk(b, c, f"{path}[{i}]", pairs)
        return
    if isinstance(baseline, bool) or isinstance(current, bool):
        return  # bools are ints in Python; don't diff them numerically
    if isinstance(baseline, (int, float)) and isinstance(current, (int, float)):
        pairs.append((path, float(baseline), float(current)))


def index_by_name(items):
    """items as {name: item} when every element is a dict with a unique name."""
    out = {}
    for item in items:
        if not isinstance(item, dict) or "name" not in item:
            return None
        name = item["name"]
        if name in out:
            return None
        out[name] = item
    return out


def relative_delta(baseline, current):
    if baseline == current:
        return 0.0
    if baseline == 0.0:
        return float("inf")
    return abs(current - baseline) / abs(baseline)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed snapshot (the reference); "
                        "a bare name under --baseline-dir when that is given")
    parser.add_argument("current", help="freshly produced snapshot")
    parser.add_argument("--baseline-dir", default=None,
                        help="directory the baseline argument is resolved in")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="default relative tolerance (default 0.05 = 5%%)")
    parser.add_argument("--only", action="append", default=[],
                        help="regex; compare only paths matching any (repeatable)")
    parser.add_argument("--ignore", action="append", default=[],
                        help="regex; skip paths matching any (repeatable)")
    parser.add_argument("--metric-tolerance", action="append", default=[],
                        metavar="REGEX=TOL",
                        help="per-path tolerance override, first match wins")
    parser.add_argument("--informational", action="append", default=[],
                        metavar="REGEX",
                        help="regex; matching paths are compared and reported "
                        "but never fail the gate (repeatable)")
    parser.add_argument("--require-equal", action="append", default=[],
                        metavar="REGEX",
                        help="regex; matching paths must match exactly "
                        "(tolerance 0, overriding --tolerance and "
                        "--metric-tolerance; repeatable)")
    parser.add_argument("--quiet", action="store_true",
                        help="print only failures and the summary line")
    args = parser.parse_args()

    def load(path, role):
        """Parsed JSON, or None after naming the offending file on stderr."""
        try:
            with open(path) as f:
                return json.load(f)
        except OSError as err:
            print(f"error: cannot read {role} file {path!r}: {err}",
                  file=sys.stderr)
        except json.JSONDecodeError as err:
            print(f"error: cannot parse {role} file {path!r}: {err}",
                  file=sys.stderr)
        return None

    baseline_path = args.baseline
    if args.baseline_dir is not None:
        baseline_path = os.path.join(args.baseline_dir, args.baseline)
    baseline = load(baseline_path, "baseline")
    if baseline is None:
        return 2
    current = load(args.current, "current")
    if current is None:
        return 2

    overrides = []
    for spec in args.metric_tolerance:
        pattern, sep, tol = spec.rpartition("=")
        if not sep:
            print(f"error: bad --metric-tolerance {spec!r} (want REGEX=TOL)",
                  file=sys.stderr)
            return 2
        overrides.append((re.compile(pattern), float(tol)))
    only = [re.compile(p) for p in args.only]
    ignore = [re.compile(p) for p in args.ignore]
    informational = [re.compile(p) for p in args.informational]
    require_equal = [re.compile(p) for p in args.require_equal]

    pairs = []
    walk(baseline, current, "", pairs)
    compared = 0
    failures = []
    for path, base, cur in pairs:
        if only and not any(p.search(path) for p in only):
            continue
        if any(p.search(path) for p in ignore):
            continue
        if any(p.search(path) for p in informational):
            # Reported for the log, exempt from the verdict: the delta is
            # printed even inside tolerance so trends stay visible.
            delta = relative_delta(base, cur)
            if not args.quiet:
                print(f"  info {path}: {base:g} -> {cur:g} "
                      f"(delta {delta:.2%}, informational)")
            continue
        if any(p.search(path) for p in require_equal):
            tolerance = 0.0
        else:
            tolerance = args.tolerance
            for pattern, tol in overrides:
                if pattern.search(path):
                    tolerance = tol
                    break
        compared += 1
        delta = relative_delta(base, cur)
        if delta > tolerance:
            failures.append((path, base, cur, delta, tolerance))
        elif not args.quiet:
            print(f"  ok   {path}: {base:g} -> {cur:g} "
                  f"(delta {delta:.2%} <= {tolerance:.2%})")

    for path, base, cur, delta, tolerance in failures:
        print(f"  FAIL {path}: {base:g} -> {cur:g} "
              f"(delta {delta:.2%} > {tolerance:.2%})")
    if compared == 0:
        print("error: no metrics compared — check --only/--ignore filters",
              file=sys.stderr)
        return 2
    verdict = "FAIL" if failures else "OK"
    print(f"{verdict}: {compared} metrics compared, {len(failures)} outside "
          f"tolerance")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
