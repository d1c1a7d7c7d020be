#!/usr/bin/env python3
"""Checks on the synthesis benchmark itself. Run from the checkout root.

    python3 synthbench/check.py repeat
        Two traced runs of seed 1 on every single-domain workload must
        report identical work counts (nodes, pivots, dual pivots, bound flips,
        refactorisations, min-cuts). Exits nonzero on any difference.

    python3 synthbench/check.py spread
        Runs each workload of BENCHMARK.json once per seed 1..10 and prints,
        for every end-to-end metric, the median and the interquartile range
        as a share of the median, next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = [
    "lp.bb.nodes",
    "lp.simplex.pivots",
    "lp.simplex.dual_pivots",
    "lp.simplex.bound_flips",
    "lp.simplex.refactorisations",
    "layering.min_cuts",
]
SINGLE_DOMAIN = ["ilp_case1", "ilp_random", "heuristic_scale"]
SEED = 1
RUNS = 10


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [
            sys.executable, "synthbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def repeat():
    ok = True
    for workload in SINGLE_DOMAIN:
        first, second = (bench(workload, SEED, 1, 1)["metrics"] for _ in range(2))
        for name in EXACT:
            a, b = first[name]["value"], second[name]["value"]
            same = a == b
            ok = ok and same
            verdict = "same" if same else "DIFFERENT"
            print(f"{workload:16} {name:30} {a:>12} {b:>12} {verdict}")
    return 0 if ok else 1


def spread():
    config = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    worst = 0.0
    for workload in (w["name"] for w in config["workloads"]):
        seeds = range(1, RUNS + 1)
        runs = [bench(workload, seed, config["run_seconds"], 0) for seed in seeds]
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bound)
            print(f"{workload:16} {name:14} median {med:14.6f}  "
                  f"spread {share:7.4f}  bound {bound}")
            print("    " + " ".join(f"{v:.6g}" for v in values))
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["repeat", "spread"])
    args = parser.parse_args()
    return repeat() if args.command == "repeat" else spread()


if __name__ == "__main__":
    sys.exit(main())
