#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
library and the benchmark binary (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The binary repeats the workload for the given wall
time; this script checks every emitted name against perfbench/metrics.json,
records the machine and build context, writes the full result under
<build dir>/out/, and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer ones.

Exit status: 0 on a correct run, 1 on a failed build, a failed run, a
spec violation or a metric missing from the catalogue, 2 on bad arguments.
"""

import argparse
import fcntl
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("population", "dynamic_drain", "durable_churn")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
OPTIMIZED_BUILD_TYPES = ("Release", "RelWithDebInfo")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    for required in ("CMakeLists.txt", os.path.join("src", "weakset.hpp")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("library sources not found (%s); run from a full checkout"
                 % required)
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target",
                      "weakset_perfbench", "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                fail("build step failed: " + " ".join(step))
    return os.path.join(out, "weakset_perfbench")


def machine_context(out, optimized):
    context = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    context["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    with open(os.path.join(out, "build_context.json")) as f:
        context.update(json.load(f))
    context["binary_optimized"] = optimized
    context["unoptimized_build"] = (
        not optimized
        or context.get("cmake_build_type") not in OPTIMIZED_BUILD_TYPES)
    return context


def load_catalogue():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return {m["name"]: m for m in json.load(f)["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    results = os.path.join(out, "out")
    os.makedirs(results, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", results]
    # The binary stops repeating after 1.5 * --seconds; the rest covers the
    # set-ups and the repetition under way.
    timeout_s = args.seconds * 2 + 120
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=timeout_s, text=True)
    except subprocess.TimeoutExpired:
        fail("the benchmark binary ran past %g s" % timeout_s)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("the benchmark binary failed (exit %d)" % proc.returncode)
    raw = json.loads(lines[-1])

    catalogue = load_catalogue()
    kind = "per_layer" if args.trace else "end_to_end"
    expected = {n for n, m in catalogue.items() if m["kind"] == kind}
    emitted = set(raw["metrics"])
    bad = sorted(n for n in emitted
                 if not NAME_RE.match(n) or n not in expected)
    if bad:
        fail("metrics missing from perfbench/metrics.json: " + ", ".join(bad))
    if emitted != expected:
        fail("metrics not emitted: " + ", ".join(sorted(expected - emitted)))

    context = machine_context(out, raw["optimized"])
    print("context: " + json.dumps(context, sort_keys=True))
    if context["unoptimized_build"]:
        print("WARNING: unoptimised build; wall-clock metrics are not "
              "comparable")
    print("workload %s seed %d: %d repetitions, %d spec-checked runs, "
          "spec_violations %d, deterministic %s"
          % (raw["workload"], raw["seed"], raw["reps"], raw["spec_runs"],
             raw["spec_violations"], raw["deterministic"]))
    print("samples: " + json.dumps(raw["samples"], sort_keys=True))
    metrics = {}
    for name in sorted(raw["metrics"]):
        entry = catalogue[name]
        value = raw["metrics"][name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print("%-32s %16.6g %-6s (%s, %s)"
              % (name, value, entry["unit"], entry["clock"], entry["layer"]))

    correct = bool(raw["correct"])
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, context=context,
                  raw=raw)
    path = os.path.join(results, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
