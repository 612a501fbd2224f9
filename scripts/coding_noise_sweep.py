#!/usr/bin/env python3
"""Bit-error rate of exact MPE decoding on linear block-code networks as the
Gaussian channel noise grows.

For each noise level, decodes a batch of seeded codewords with AOBF and
reports the fraction of wrongly recovered bits.

Example:
    python3 scripts/coding_noise_sweep.py --n 12 --parity 4 --batch 25
"""

import argparse

import andor_mpe as am


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=12, help="input bits")
    ap.add_argument("--parity", type=int, default=4, help="parents per parity bit")
    ap.add_argument("--batch", type=int, default=25, help="codewords per level")
    ap.add_argument("--ibound", type=int, default=6)
    ap.add_argument("--sigma2", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.32, 0.4, 0.5])
    args = ap.parse_args(argv)

    print(f"{'sigma^2':>8} {'BER':>8} {'word errors':>12} {'mean nodes':>11}")
    for sigma2 in args.sigma2:
        bit_errors = word_errors = nodes = 0
        total_bits = 0
        for seed in range(args.batch):
            net, truth = am.gen_coding(args.n, args.parity, sigma2, seed=seed)
            res = am.aobf(am.build_problem(net, am.decompose(net, seed=seed),
                                           args.ibound))
            assert res.status == "solved"
            wrong = sum(1 for v, b in truth.items() if res.assignment[v] != b)
            bit_errors += wrong
            word_errors += wrong > 0
            total_bits += len(truth)
            nodes += res.stats.expansions
        print(f"{sigma2:>8.3g} {bit_errors / total_bits:>8.4f} "
              f"{word_errors:>5}/{args.batch:<6} {nodes / args.batch:>11.0f}")


if __name__ == "__main__":
    main()
