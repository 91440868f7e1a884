#!/usr/bin/env python3
"""Compares two builds of the repository benchmark over alternating pairs.

    python3 scripts/perfbench_pairs.py PARENT_BIN CHANGE_BIN \\
        --workload durable_churn --seed 1 --seconds 30 --pairs 10
    python3 scripts/perfbench_pairs.py PARENT_BIN CHANGE_BIN \\
        --workload durable_churn --sim-seeds 1,2,3,4,90001 --seconds 2

PARENT_BIN and CHANGE_BIN are weakset_perfbench binaries built the same way
from two commits (for example, perfbench/run.py run once per checkout with
two different CARGO_TARGET_DIRs). Each pair runs both binaries once with the
same arguments and --trace 0; even-numbered pairs run the parent first,
odd-numbered ones the change, so a slow or fast stretch of the host lands on
both sides alike.

Printed, in order:
  * per pair: ops_per_wall_s, setup_s and peak_rss_mb of both sides;
  * per wall-clock metric: each side's median and quartiles, the change's
    median over the parent's, the pairs the change wins (ties count for
    neither), whether a gain may be claimed (wins in at least 9/10 of the
    pairs and the medians further apart than the parent's interquartile
    range), and whether the change's median is within the regression bound
    BENCHMARK.json fixes;
  * every simulated-time end-to-end metric (catalogue clock sim or count)
    and every attempted/failed/overloaded count per repetition that differs
    between the two binaries, or between runs of one binary. A run reports
    its counts summed over its repetitions, and a slowed host makes fewer
    of them, so the counts are compared per repetition.

With --sim-seeds, each binary instead runs once per listed seed, and every
simulated-time end-to-end metric is printed per seed side by side: both
values, the change over the parent, and whether the change is within the
regression bound BENCHMARK.json fixes. Simulated metrics repeat exactly per
seed, so one short run per seed measures them, but they are not smooth
across seeds: a percentile can sit between two clusters of samples and
jump from one to the other at one seed only. In this mode the exit status
is 0 when every run is correct and every metric is within its bound at
every seed, 1 otherwise.

Exit status: 0 when every run is correct and no simulated-time metric or
count differs, 1 otherwise, 2 on bad arguments.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("population", "dynamic_drain", "durable_churn")
WALL_METRICS = ("ops_per_wall_s", "setup_s", "peak_rss_mb")
COUNTS = ("attempted", "failed", "overloaded")
SIDES = ("parent", "change")


def seed_list(text):
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("not a list of seeds: " + text)
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def load_json(*parts):
    with open(os.path.join(ROOT, *parts)) as f:
        return json.load(f)


def run_once(binary, args, out_dir, seed=None):
    seed = args.seed if seed is None else seed
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--out-dir", out_dir]
    # The binary stops repeating after 1.5 * --seconds; the rest covers the
    # set-ups and the repetition under way.
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds * 2 + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench_pairs: %s exited %d" % (binary, proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(name, better, bound, runs):
    parent = [r["metrics"][name] for r in runs["parent"]]
    change = [r["metrics"][name] for r in runs["change"]]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    gain = (wins * 10 >= len(parent) * 9 and
            sign * (c_med - p_med) > p_q3 - p_q1)
    ratio = c_med / p_med if p_med else float("nan")
    # A regression is the change's median worse than the parent's by more
    # than the bound, as a fraction of the parent's median.
    worse = -sign * (c_med - p_med) / p_med if p_med else 0.0
    print("%-15s parent %12.6g [%.6g, %.6g]  change %12.6g [%.6g, %.6g]"
          % (name, p_med, p_q1, p_q3, c_med, c_q1, c_q3))
    print("%-15s change/parent %.3f, change wins %d/%d (%s is better), "
          "gain rule %s, within bound %g: %s"
          % ("", ratio, wins, len(parent), better,
             "met" if gain else "not met", bound,
             "yes" if worse <= bound else "NO"))


def sim_metric_names(catalogue):
    return sorted(n for n, m in catalogue.items()
                  if m["kind"] == "end_to_end" and m["clock"] in
                  ("sim", "count"))


def compare_seeds(args, binaries, catalogue, bounds, out_dir):
    """One run per binary and seed; True when all are correct and within
    bound."""
    ok = True
    names = sim_metric_names(catalogue)
    print("%s, %g s per run, seeds %s"
          % (args.workload, args.seconds,
             ", ".join(str(seed) for seed in args.sim_seeds)))
    print("%-20s %8s %12s %12s %8s  %s"
          % ("metric", "seed", "parent", "change", "ratio", "within bound"))
    for seed in args.sim_seeds:
        runs = {side: run_once(binaries[side], args, out_dir, seed)
                for side in SIDES}
        for side in SIDES:
            if not runs[side]["correct"]:
                print("incorrect run: %s seed %d" % (side, seed))
                ok = False
        for name in names:
            parent = runs["parent"]["metrics"][name]
            change = runs["change"]["metrics"][name]
            sign = 1 if catalogue[name]["better"] == "higher" else -1
            worse = -sign * (change - parent) / parent if parent else 0.0
            within = worse <= bounds[name]
            ok = ok and within
            print("%-20s %8d %12.6g %12.6g %8.4f  %s (%g)"
                  % (name, seed, parent, change,
                     change / parent if parent else float("nan"),
                     "yes" if within else "NO", bounds[name]), flush=True)
        for count in COUNTS:
            print("%-20s %8d %12.6g %12.6g"
                  % (count + "/rep", seed, per_rep(runs["parent"], count),
                     per_rep(runs["change"], count)))
    return ok


def per_rep(run, count):
    return run[count] / run["reps"]


def simulated_differences(runs, catalogue):
    """(what, label, expected, got) for every sim/count mismatch."""
    names = sim_metric_names(catalogue)
    reference = runs["parent"][0]
    diffs = []
    for side in SIDES:
        for i, run in enumerate(runs[side]):
            label = "%s run %d" % (side, i + 1)
            for name in names:
                if run["metrics"][name] != reference["metrics"][name]:
                    diffs.append((name, label, reference["metrics"][name],
                                  run["metrics"][name]))
            for count in COUNTS:
                if per_rep(run, count) != per_rep(reference, count):
                    diffs.append((count + "/rep", label,
                                  per_rep(reference, count),
                                  per_rep(run, count)))
    return diffs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_bin")
    parser.add_argument("change_bin")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--sim-seeds", type=seed_list,
                        help="comma-separated seeds: one run per binary and "
                        "seed, simulated-time metrics side by side")
    args = parser.parse_args()
    if args.sim_seeds is not None:
        if args.seed is not None or args.pairs is not None:
            parser.error("--sim-seeds replaces --seed and --pairs")
    elif args.seed is None or args.pairs is None:
        parser.error("--seed and --pairs are required without --sim-seeds")
    elif args.pairs < 1:
        parser.error("--pairs must be at least 1")
    binaries = {"parent": os.path.abspath(args.parent_bin),
                "change": os.path.abspath(args.change_bin)}
    for binary in binaries.values():
        if not os.access(binary, os.X_OK):
            parser.error("not an executable: " + binary)

    catalogue = {m["name"]: m
                 for m in load_json("perfbench", "metrics.json")["metrics"]}
    bounds = {m["name"]: m["bound"]
              for m in load_json("BENCHMARK.json")["end_to_end"]}
    runs = {side: [] for side in SIDES}
    out_dir = tempfile.mkdtemp(prefix="perfbench_pairs-")
    if args.sim_seeds is not None:
        try:
            return 0 if compare_seeds(args, binaries, catalogue, bounds,
                                      out_dir) else 1
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    try:
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(binaries[side], args, out_dir))
            print("pair %2d (%s first):" % (pair + 1, order[0]) + "".join(
                "  %s %.6g -> %.6g" % (name,
                                       runs["parent"][-1]["metrics"][name],
                                       runs["change"][-1]["metrics"][name])
                for name in WALL_METRICS), flush=True)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    print("\n%s seed %d, %g s per run, %d pairs"
          % (args.workload, args.seed, args.seconds, args.pairs))
    for name in WALL_METRICS:
        summarize(name, catalogue[name]["better"], bounds[name], runs)

    incorrect = ["%s run %d" % (side, i + 1) for side in SIDES
                 for i, run in enumerate(runs[side]) if not run["correct"]]
    diffs = simulated_differences(runs, catalogue)
    print("\nsimulated-time metrics and counts that differ from parent run "
          "1: %s" % ("none" if not diffs else len(diffs)))
    for name, label, expected, got in diffs:
        print("  %-20s %-15s %.9g (parent run 1: %.9g)"
              % (name, label, got, expected))
    if incorrect:
        print("incorrect runs: " + ", ".join(incorrect))
    return 0 if not diffs and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
