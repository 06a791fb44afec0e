#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per workload and metric,
the median and the quartile spread (Q3 - Q1) / median, next to the metric's
bound from BENCHMARK.json.  A spread at or above a third of the bound is
flagged.  With --sets 2 or more, each further set of seeds is run after the
first and the change of every median against the first set's is printed and
flagged when it is worse than the bound.

    python3 perfbench/spread.py --workloads fleet-curve,serve-mix --seeds 10 --sets 2

Run from the repository root; the benchmark builds on first use.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def measure(workload, seeds, seconds):
    """Per-metric values over `seeds`, and whether every run was correct."""
    values, ok = {}, True
    for seed in seeds:
        result = run(workload, seed, seconds, 0)
        if not result["correct"]:
            print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, ok


def main():
    spec = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        first_medians = {}
        for s in range(args.sets):
            start = args.first_seed + s * args.seeds
            values, correct = measure(workload, range(start, start + args.seeds), args.seconds)
            ok &= correct
            for name, vals in values.items():
                bound = metrics[name]["bound"]
                median = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                flag = "" if spread < bound / 3 else "  <-- spread above bound/3"
                if s == 0:
                    first_medians[name] = median
                    change = ""
                else:
                    worse = median / first_medians[name] - 1
                    if metrics[name]["better"] == "higher":
                        worse = first_medians[name] / median - 1
                    change = f" worse_than_set1={worse:+.4f}"
                    if worse > bound:
                        flag += "  <-- median worse than set 1 by more than the bound"
                print(f"{workload:20} set{s + 1} {name:20} median={median:.6g} spread={spread:.4f}"
                      f"{change} bound={bound}{flag}  values={' '.join(f'{v:.6g}' for v in vals)}")
                sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
