"""Independent exact MPE solvers used as ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factor_ops import LogFactor, combine, log_factors, max_out
from .model import BeliefNetwork
from .structure import EliminationOrder

DEFAULT_ENUMERATION_CAP = 1 << 22


@dataclass
class OracleResult:
    mpe_log: float
    assignment: dict[int, int]


def enumerate_mpe(net: BeliefNetwork, cap: int = DEFAULT_ENUMERATION_CAP) -> OracleResult:
    """Full enumeration of the joint; ties go to the lexicographically
    smallest assignment (variables in declaration order)."""
    variables = net.variables
    if not variables:
        return OracleResult(0.0, {})
    shape = tuple(net.domains[v] for v in variables)
    size = math.prod(shape)
    if size > cap:
        raise ValueError(f"joint size {size} exceeds enumeration cap {cap}")
    joint = np.zeros(shape)
    for f in log_factors(net.factors):
        joint += f.aligned(tuple(variables))
    flat = int(joint.argmax())
    idx = np.unravel_index(flat, shape)
    assignment = {v: int(x) for v, x in zip(variables, idx)}
    return OracleResult(float(joint[idx]), assignment)


def bucket_elimination_mpe(net: BeliefNetwork, elim: EliminationOrder,
                           max_table_entries: int | None = None) -> OracleResult:
    """Exact max-product variable elimination with argmax back-substitution."""
    if set(elim.order) != set(net.variables):
        raise ValueError("elimination order does not cover the network variables")
    if not net.variables:
        return OracleResult(0.0, {})
    pos = elim.position
    buckets: dict[int, list[LogFactor]] = {v: [] for v in elim.order}
    constant = 0.0
    for lf in log_factors(net.factors):
        if not lf.scope:
            constant += lf.scalar()
            continue
        buckets[min(lf.scope, key=lambda v: pos[v])].append(lf)
    entries = 0
    back = []  # (var, remaining scope, argmax table)
    for v in elim.order:
        funcs = buckets[v]
        if not funcs:
            back.append((v, (), np.array(0)))
            continue
        combined = combine(funcs)
        entries += combined.table.size
        if max_table_entries is not None and entries > max_table_entries:
            raise MemoryError(f"bucket tables exceed {max_table_entries} entries")
        msg = max_out(combined, v)
        arg = combined.table.argmax(axis=combined.scope.index(v))  # first index wins
        back.append((v, msg.scope, arg))
        if not msg.scope:
            constant += msg.scalar()
        else:
            buckets[min(msg.scope, key=lambda u: pos[u])].append(msg)
    assignment: dict[int, int] = {}
    for v, scope, arg in reversed(back):
        assignment[v] = int(arg[tuple(assignment[u] for u in scope)])
    return OracleResult(constant, assignment)
