"""Independent exact MPE solvers used as ground truth."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factor_ops import LogFactor, combine, log_factors, max_out
from .limits import UNLIMITED, Budget
from .model import BeliefNetwork
from .structure import EliminationOrder

DEFAULT_ENUMERATION_CAP = 1 << 22


@dataclass
class OracleResult:
    mpe_log: float
    assignment: dict[int, int]


def enumerate_mpe(net: BeliefNetwork, cap: int = DEFAULT_ENUMERATION_CAP,
                  budget: Budget = UNLIMITED) -> OracleResult:
    """Full enumeration of the joint; ties go to the lexicographically
    smallest assignment (variables in declaration order). Calls
    `budget.check()` before and after the joint is built."""
    variables = net.variables
    if not variables:
        return OracleResult(0.0, {})
    shape = tuple(net.domains[v] for v in variables)
    if math.prod(shape) > cap:  # its size may have too many digits to print
        raise ValueError(f"the joint of {len(variables)} variables exceeds "
                         f"the enumeration cap of {cap} entries")
    budget.check()
    joint = np.zeros(shape)
    for f in log_factors(net.factors):
        joint += f.aligned(tuple(variables))
    budget.check()
    flat = int(joint.argmax())
    idx = np.unravel_index(flat, shape)
    assignment = {v: int(x) for v, x in zip(variables, idx)}
    return OracleResult(float(joint[idx]), assignment)


def bucket_elimination_mpe(net: BeliefNetwork, elim: EliminationOrder,
                           budget: Budget = UNLIMITED) -> OracleResult:
    """Exact max-product variable elimination with argmax back-substitution.
    Before each bucket is processed, calls `budget.check` with the entries
    of the bucket tables so far, this one's included."""
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
        union = {u for f in funcs for u in f.scope}
        entries += math.prod(net.domains[u] for u in union) if funcs else 0
        budget.check(entries=entries)
        if not funcs:
            back.append((v, (), np.array(0)))
            continue
        combined = combine(funcs)
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
