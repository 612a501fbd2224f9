#!/usr/bin/env python3
"""Desk-scale node-count sweep: best-first vs branch-and-bound on seeded
random networks, across mini-bucket i-bounds.

Writes one CSV row per (seed, algorithm, i-bound) plus per-configuration
means, and prints a small summary table.

Example:
    python3 scripts/ibound_sweep.py --n 60 --seeds 500:520 --ibounds 2 3 4 6 8 10
"""

import argparse
import csv
import statistics
import sys
import time

import andor_mpe as am


def parse_seed_range(text):
    if ":" in text:
        lo, hi = text.split(":")
        return range(int(lo), int(hi))
    return [int(text)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=60)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--parents", type=int, default=2)
    ap.add_argument("--seeds", type=parse_seed_range, default=range(500, 520),
                    help="seed or lo:hi range (default 500:520)")
    ap.add_argument("--ibounds", type=int, nargs="+",
                    default=[2, 3, 4, 6, 8, 10])
    ap.add_argument("--out", default="ibound_sweep.csv")
    args = ap.parse_args(argv)

    # same density as the acceptance sweep, capped so small n stays valid
    c = min(args.n - args.n // 10, args.n - args.parents)
    rows = []
    nodes = {(a, i): [] for a in ("aobf", "aobb") for i in args.ibounds}
    times = {(a, i): [] for a in ("aobf", "aobb") for i in args.ibounds}
    for seed in args.seeds:
        net = am.gen_random(args.n, args.d, c, args.parents, seed=seed)
        tree = am.decompose(net, seed=seed)
        for i in args.ibounds:
            problem = am.build_problem(net, tree, i)
            for name, run in (("aobf", am.aobf), ("aobb", am.aobb)):
                t0 = time.perf_counter()
                res = run(problem)
                dt = time.perf_counter() - t0
                assert res.status == "solved"
                rows.append([seed, tree.elim.induced_width, tree.height, name, i,
                             f"{res.mpe_log:.12g}", res.stats.expansions,
                             res.stats.cache_hits, f"{dt:.4f}"])
                nodes[(name, i)].append(res.stats.expansions)
                times[(name, i)].append(dt)
        print(f"seed {seed} done", file=sys.stderr)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "w_star", "h", "algorithm", "ibound", "mpe_log",
                    "nodes", "cache_hits", "time_s"])
        w.writerows(rows)

    print(f"\nmeans over {len(list(args.seeds))} instances "
          f"(n={args.n}, d={args.d}, c={c}, p={args.parents})")
    print(f"{'i':>3} {'AOBF nodes':>12} {'AOBB nodes':>12} {'ratio':>7} "
          f"{'AOBF s':>8} {'AOBB s':>8}")
    for i in args.ibounds:
        bf = statistics.mean(nodes[("aobf", i)])
        bb = statistics.mean(nodes[("aobb", i)])
        print(f"{i:>3} {bf:>12.0f} {bb:>12.0f} {bb / bf:>7.3f} "
              f"{statistics.mean(times[('aobf', i)]):>8.3f} "
              f"{statistics.mean(times[('aobb', i)]):>8.3f}")
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
