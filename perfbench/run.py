#!/usr/bin/env python3
"""Seeded, oracle-checked benchmark of the andor-mpe solver.

    python3 perfbench/run.py --workload rand-search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in its own fresh process and prints a
table of the metrics. The solver is imported from ``src/`` of the checkout
that holds this directory; without it the run exits with code 2 and prints
no result. See ``bench.py`` for what a run measures.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"
# One thread for every numeric library, set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import andor_mpe
        import bench
    except ImportError as e:
        print(f"error: cannot import the solver from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(andor_mpe.__file__).resolve().parent != SRC / "andor_mpe":
        print(f"error: andor_mpe was imported from {andor_mpe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return bench.run_all(args)
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)} or all", file=sys.stderr)
        return 2
    return bench.run_workload(args, T_START)


if __name__ == "__main__":
    sys.exit(main())
