"""Time one set-up of a workload in a fresh interpreter and print the seconds.

Set-up is importing rsmimo (with numpy already loaded, as it is not part of
the package) and building the workload's inputs:

    python3 bench/setup_probe.py --workload headline --seed 1
"""

import argparse
import sys
import time
from pathlib import Path

import numpy  # noqa: F401  (loaded before timing starts)

import workloads


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_KEY))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if "rsmimo" in sys.modules:
        sys.exit("rsmimo was imported before the set-up timer started")
    start = time.perf_counter()
    workloads.prepare(Path(__file__).resolve().parent.parent, args.workload, args.seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
