#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/selftest.py

It checks that
  * the correctness gate rejects hand-built Fig 6 traces that break the
    predicate and accepts valid ones (weakset_perfbench --selfcheck);
  * BENCHMARK.json and perfbench/metrics.json agree, and every catalogued
    name matches [A-Za-z0-9_.-]+;
  * every workload runs through perfbench/run.py in both modes (run.py
    itself fails on an emitted name missing from the catalogue);
  * two runs with one seed give identical simulated-time metrics, and a
    traced run simulates exactly what the untraced one does;
  * a held-out seed, never used while the workloads were tuned, passes
    the correctness gate.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

import run as bench_run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = ("population", "dynamic_drain", "durable_churn")
WALL_METRICS = {"setup_s", "ops_per_wall_s", "peak_rss_mb"}
TUNING_SEED = 7
HELD_OUT_SEED = 90001
SECONDS = "0.5"


def check(condition, message):
    if not condition:
        print("FAIL: " + message)
        sys.exit(1)


def run(workload, seed, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", SECONDS,
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    check(proc.returncode == 0,
          "%s seed %d trace %d exited %d" % (workload, seed, trace,
                                             proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "result keys of %s" % workload)
    return result


def check_catalogue():
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = {m["name"]: m for m in json.load(f)["metrics"]}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for name, entry in catalogue.items():
        check(NAME_RE.match(name), "bad metric name %r" % name)
        for key in ("unit", "clock", "layer", "kind", "better", "moves"):
            check(entry.get(key), "%s lacks %s" % (name, key))
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m for m in bench[kind]}
        listed = {n for n, m in catalogue.items() if m["kind"] == kind}
        check(set(declared) == listed,
              "%s differs between BENCHMARK.json and metrics.json" % kind)
        for name, m in declared.items():
            check(m["unit"] == catalogue[name]["unit"] and
                  m["better"] == catalogue[name]["better"],
                  "unit or direction of %s differs" % name)
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "workload list")


def check_gate():
    binary = bench_run.build(bench_run.build_dir())
    proc = subprocess.run([binary, "--selfcheck"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    print(proc.stdout, end="")
    check(proc.returncode == 0, "the correctness gate misjudged a trace")


def main():
    os.chdir(ROOT)
    check_catalogue()
    check_gate()
    for workload in WORKLOADS:
        first = run(workload, TUNING_SEED, 0)
        second = run(workload, TUNING_SEED, 0)
        for name, entry in first["metrics"].items():
            if name in WALL_METRICS:
                continue
            check(entry == second["metrics"][name],
                  "%s: %s differs between two runs of one seed"
                  % (workload, name))
        # The traced run compares every traced repetition's simulation with
        # the untraced ones and is incorrect if any differs.
        traced = run(workload, TUNING_SEED, 1)
        check(traced["correct"], "%s: traced run incorrect" % workload)
        held_out = run(workload, HELD_OUT_SEED, 0)
        check(held_out["correct"] and held_out["failed"] == 0,
              "%s: held-out seed %d fails the gate" % (workload,
                                                      HELD_OUT_SEED))
        print("ok: %s" % workload)
    print("selftest passed")


if __name__ == "__main__":
    main()
