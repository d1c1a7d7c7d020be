#!/usr/bin/env python3
"""Build and run the cohls synthesis benchmark.

Run from the root of a cohls checkout:

    python3 synthbench/run.py --workload ilp_case1 --seed 1 --seconds 20 --trace 0

The benchmark executable is built from source with dune (into the
checkout's _build directory), then run; its last line of standard output is
the JSON result. The exit code is the executable's: nonzero when a check
failed or the run could not start.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["ilp_case1", "ilp_case1_d2", "ilp_random", "heuristic_scale"]
TARGET = "synthbench/synthbench.exe"
EXE = os.path.join("_build", "default", TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("synthbench: run from the root of a cohls checkout", file=sys.stderr)
        return 2

    # Keep every build output inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
        stdout=sys.stderr,
        env=env,
        timeout=850,
    )
    if build.returncode != 0:
        print("synthbench: build failed", file=sys.stderr)
        return build.returncode

    run = subprocess.run(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        # set-up, the checks after the timed part and, in traced runs, the
        # replay come on top of the measuring time
        timeout=2 * args.seconds + 120,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
