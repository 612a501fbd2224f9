"""Seeded synthetic benchmark families: random, grid, and coding networks."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import BeliefNetwork, Factor


@dataclass(frozen=True)
class GenSpec:
    family: str  # random | grid | coding
    params: dict
    seed: int

    def to_json(self) -> str:
        return json.dumps({"family": self.family, "params": self.params,
                           "seed": self.seed}, sort_keys=True)


def generate(spec: GenSpec):
    if spec.family == "random":
        return gen_random(seed=spec.seed, **spec.params), {}
    if spec.family == "grid":
        return gen_grid(seed=spec.seed, **spec.params)
    if spec.family == "coding":
        net, _truth = gen_coding(seed=spec.seed, **spec.params)
        return net, {}
    raise ValueError(f"unknown family {spec.family!r}")


def gen_random(n: int, d: int, c: int, p: int, seed: int = 0) -> BeliefNetwork:
    """Random network: n variables of domain size d; c of them get a CPT with
    p parents drawn from earlier variables in a random topological order;
    the rest get uniform priors. CPT rows are symmetric Dirichlet(1)."""
    if not (0 <= p < n):
        raise ValueError("need 0 <= p < n")
    if not 0 <= c <= n - p:
        raise ValueError("need 0 <= c <= n - p (CPT variables need p predecessors)")
    if d < 1:
        raise ValueError("domain size must be >= 1")
    rng = np.random.default_rng(seed)
    topo = [int(v) for v in rng.permutation(n)]
    position = {v: i for i, v in enumerate(topo)}
    eligible = [v for v in topo if position[v] >= p]
    with_cpt = set(int(v) for v in rng.choice(eligible, size=c, replace=False)) \
        if c else set()
    factors = []
    for v in range(n):
        if v in with_cpt and p > 0:
            earlier = topo[:position[v]]
            parents = sorted(int(u) for u in rng.choice(earlier, size=p, replace=False))
            rows = rng.dirichlet(np.ones(d), size=d ** p)
            table = rows.reshape((d,) * p + (d,))
            factors.append(Factor(scope=tuple(parents) + (v,), table=table, child=v))
        elif v in with_cpt:
            table = rng.dirichlet(np.ones(d))
            factors.append(Factor(scope=(v,), table=table, child=v))
        else:
            factors.append(Factor(scope=(v,), table=np.full(d, 1.0 / d), child=v))
    net = BeliefNetwork(variables=list(range(n)), domains={v: d for v in range(n)},
                        factors=factors)
    net.validate()
    return net


def gen_grid(n: int, det_fraction: float, num_evidence: int,
             seed: int = 0) -> tuple[BeliefNetwork, dict[int, int]]:
    """n x n binary grid; each node conditions on its left and up neighbors.
    A det_fraction share of CPTs are deterministic 0/1 tables. Returns the
    network plus a random evidence assignment (not yet applied)."""
    if n < 2:
        raise ValueError("grid side must be >= 2")
    if not 0.0 <= det_fraction <= 1.0:
        raise ValueError("det_fraction must be in [0, 1]")
    total = n * n
    if not 0 <= num_evidence <= total:
        raise ValueError("num_evidence out of range")
    rng = np.random.default_rng(seed)
    num_det = int(round(det_fraction * total))
    det_vars = set(int(v) for v in rng.choice(total, size=num_det, replace=False))
    factors = []
    for r in range(n):
        for col in range(n):
            v = r * n + col
            parents = []
            if col > 0:
                parents.append(v - 1)  # left
            if r > 0:
                parents.append(v - n)  # up
            rows = 2 ** len(parents)
            if v in det_vars:
                hot = rng.integers(0, 2, size=rows)
                table = np.zeros((rows, 2))
                table[np.arange(rows), hot] = 1.0
            else:
                table = rng.random((rows, 2))
                table /= table.sum(axis=1, keepdims=True)
            table = table.reshape((2,) * len(parents) + (2,))
            factors.append(Factor(scope=tuple(parents) + (v,), table=table, child=v))
    net = BeliefNetwork(variables=list(range(total)),
                        domains={v: 2 for v in range(total)}, factors=factors)
    net.validate()
    ev_vars = [int(v) for v in rng.choice(total, size=num_evidence, replace=False)]
    evidence = {v: int(rng.integers(0, 2)) for v in ev_vars}
    return net, evidence


def gen_coding(n: int, p: int, sigma2: float,
               seed: int = 0) -> tuple[BeliefNetwork, dict[int, int]]:
    """Linear block code network: n uniform input bits (vars 0..n-1) and n
    parity bits (vars n..2n-1), each a deterministic XOR of p random input
    bits. A codeword is simulated, sent through a Gaussian channel of
    variance sigma2, and every observation is folded into a unary
    log-likelihood factor over its source bit. Returns the network and the
    transmitted ground-truth assignment."""
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    rng = np.random.default_rng(seed)
    factors = []
    for u in range(n):
        factors.append(Factor(scope=(u,), table=np.array([0.5, 0.5]), child=u))
    parity_parents = []
    for j in range(n):
        parents = sorted(int(u) for u in rng.choice(n, size=p, replace=False))
        parity_parents.append(parents)
        table = np.zeros((2,) * p + (2,))
        for flat in range(2 ** p):
            bits = [(flat >> (p - 1 - k)) & 1 for k in range(p)]
            table[tuple(bits) + (sum(bits) % 2,)] = 1.0
        factors.append(Factor(scope=tuple(parents) + (n + j,), table=table,
                              child=n + j))
    inputs = rng.integers(0, 2, size=n)
    parity = np.array([sum(inputs[u] for u in parity_parents[j]) % 2
                       for j in range(n)])
    bits = np.concatenate([inputs, parity])
    observed = bits + rng.normal(0.0, math.sqrt(sigma2), size=2 * n)
    norm = 1.0 / math.sqrt(2 * math.pi * sigma2)
    for v in range(2 * n):
        y = observed[v]
        lik = np.array([norm * math.exp(-(y - b) ** 2 / (2 * sigma2))
                        for b in (0, 1)])
        factors.append(Factor(scope=(v,), table=lik, child=None))
    net = BeliefNetwork(variables=list(range(2 * n)),
                        domains={v: 2 for v in range(2 * n)}, factors=factors)
    net.validate()
    truth = {v: int(b) for v, b in enumerate(bits)}
    return net, truth
