"""Seeded workloads: each turns a workload seed into a pool of solve inputs.

An input is what a user hands to ``andor-mpe solve``: UAI text plus evidence
text. Every instance in a pool is solved with each algorithm in ``ALGORITHMS``
under the workload's heuristic and i-bound. The comment on each workload says
which layer it is meant to stress; a traced run prints each layer's share of
solve time, which shows whether it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from andor_mpe import BeliefNetwork, Factor, gen_coding, gen_grid, gen_random
from andor_mpe import serialize_uai

ALGORITHMS = ("aobf", "aobb")


@dataclass(frozen=True)
class Instance:
    label: str
    uai: str
    evidence: str


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, bool], tuple[BeliefNetwork, dict[int, int], str]]
    heuristic: str
    ibound: int
    pool: int         # instances generated in set-up; the loop cycles them
    tail_pct: float   # highest percentile with >= 10 solves beyond it ...
    min_solves: int   # ... at this many solves, which every run reaches
    count_solves: int  # exact counts are summed over this prefix of solves

    def instances(self, seed: int, count: int, warmup: bool = False) -> list[Instance]:
        """`count` serialised instances; the warm-up ones come from a
        separate stream and are the workload's small variant."""
        base = (2 * seed + warmup) * 1_000_003
        out = []
        for k in range(count):
            net, evidence, label = self.make(base + k, warmup)
            out.append(Instance(label, serialize_uai(net) + "\n",
                                evidence_text(evidence)))
        return out


def evidence_text(evidence: dict[int, int]) -> str:
    """The UAI evidence format that ``parse_evidence`` reads."""
    parts = [str(len(evidence))]
    parts.extend(f"{v} {evidence[v]}" for v in sorted(evidence))
    return " ".join(parts) + "\n"


def random_chain(n: int, seed: int) -> BeliefNetwork:
    """Binary Markov chain over a random labelling of n variables, with
    Dirichlet(1) CPT rows; w* = 1 and min-fill gives a height of about n/2."""
    rng = np.random.default_rng(seed)
    labels = [int(v) for v in rng.permutation(n)]
    factors = [Factor(scope=(labels[0],), table=rng.dirichlet(np.ones(2)),
                      child=labels[0])]
    for prev, cur in zip(labels, labels[1:]):
        factors.append(Factor(scope=(prev, cur),
                              table=rng.dirichlet(np.ones(2), size=2), child=cur))
    net = BeliefNetwork(variables=list(range(n)), domains={v: 2 for v in range(n)},
                        factors=factors)
    net.validate()
    return net


def _rand(n, c, p):
    def make(seed, small):
        if small:
            return gen_random(12, 2, 9, 2, seed=seed), {}, "random12"
        return gen_random(n, 2, c, p, seed=seed), {}, f"random{n}"
    return make


def _chain(n):
    def make(seed, small):
        m = 40 if small else n
        return random_chain(m, seed), {}, f"chain{m}"
    return make


def _sweep(seed, small):
    # Alternate the two families of the ``andor-mpe bench`` traffic.
    if seed % 2 == 0:
        side = 4 if small else 10
        net, evidence = gen_grid(side, 0.5, 5, seed=seed)
        return net, evidence, f"grid{side}"
    bits = 6 if small else 30
    net, _truth = gen_coding(bits, 4, 0.3, seed=seed)
    return net, {}, f"coding{bits}"


WORKLOADS = {w.name: w for w in (
    # Search and SMB lookups take about two thirds of a solve, and node counts
    # are heavy-tailed, so the tail percentile means something: AOBF retrace
    # and fused SMB lookups show here. The ROADMAP Baseline's 100-variable nets
    # take about 0.9 s per solve with a spread as large as the mean, too few
    # solves per run for a steady figure; at 60 variables ordering is about a
    # quarter of each solve instead of under 5%.
    Workload("rand-search", _rand(60, 54, 2), "smb", 6, pool=256,
             tail_pct=90, min_solves=100, count_solves=24),
    # w* = 1 and height about n/2: min-fill (quadratic), AOBF's per-expansion
    # retrace and the SMB provenance sets dominate.
    Workload("chain-deep", _chain(500), "smb", 2, pool=64,
             tail_pct=75, min_solves=40, count_solves=8),
    # The same heuristics layer used dynamically: every evaluation runs a full
    # mini-bucket sweep, so heuristic time dominates.
    Workload("dmb-small", _rand(30, 27, 2), "dmb", 3, pool=192,
             tail_pct=90, min_solves=100, count_solves=24),
    # Many small instances arriving as UAI text plus evidence: parsing,
    # evidence and zero-probability pruning lie on the path, and fixed
    # per-solve overhead shows.
    Workload("uai-sweep", _sweep, "smb", 8, pool=280,
             tail_pct=90, min_solves=100, count_solves=40),
)}
