"""Independent exact MPE solvers used as ground truth."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .factor_ops import LogFactor, combine, log_factors, max_out
from .model import BeliefNetwork
from .structure import EliminationOrder

DEFAULT_ENUMERATION_CAP = 1 << 22


class TimeLimitExceeded(RuntimeError):
    pass


def _deadline(time_limit: float | None):
    """A check that raises TimeLimitExceeded once `time_limit` seconds
    (None: no limit) have passed since this call."""
    t0 = time.perf_counter()

    def check():
        if time_limit is not None and time.perf_counter() - t0 >= time_limit:
            raise TimeLimitExceeded(f"time limit of {time_limit} s reached")

    return check


@dataclass
class OracleResult:
    mpe_log: float
    assignment: dict[int, int]


def enumerate_mpe(net: BeliefNetwork, cap: int = DEFAULT_ENUMERATION_CAP,
                  time_limit: float | None = None) -> OracleResult:
    """Full enumeration of the joint; ties go to the lexicographically
    smallest assignment (variables in declaration order). Raises
    TimeLimitExceeded when `time_limit` seconds have passed before or after
    the joint is built."""
    check_time = _deadline(time_limit)
    variables = net.variables
    if not variables:
        return OracleResult(0.0, {})
    shape = tuple(net.domains[v] for v in variables)
    size = math.prod(shape)
    if size > cap:
        raise ValueError(f"joint size {size} exceeds enumeration cap {cap}")
    check_time()
    joint = np.zeros(shape)
    for f in log_factors(net.factors):
        joint += f.aligned(tuple(variables))
    check_time()
    flat = int(joint.argmax())
    idx = np.unravel_index(flat, shape)
    assignment = {v: int(x) for v, x in zip(variables, idx)}
    return OracleResult(float(joint[idx]), assignment)


def bucket_elimination_mpe(net: BeliefNetwork, elim: EliminationOrder,
                           max_table_entries: int | None = None,
                           time_limit: float | None = None) -> OracleResult:
    """Exact max-product variable elimination with argmax back-substitution.
    Raises TimeLimitExceeded when `time_limit` seconds have passed before a
    bucket is processed."""
    check_time = _deadline(time_limit)
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
        check_time()
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
