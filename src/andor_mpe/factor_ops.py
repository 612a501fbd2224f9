"""Log-space factors, their algebra and their flat lookup tables."""

from __future__ import annotations

import numpy as np


class LogFactor:
    """A log-space function over an ordered variable scope."""

    __slots__ = ("scope", "table")

    def __init__(self, scope: tuple[int, ...], table: np.ndarray):
        self.scope = tuple(scope)
        self.table = np.asarray(table, dtype=float)

    def aligned(self, union_scope: tuple[int, ...]) -> np.ndarray:
        """View of the table broadcastable over `union_scope` axes."""
        present = [v for v in union_scope if v in self.scope]
        arr = self.table
        if tuple(present) != self.scope:
            arr = np.transpose(arr, [self.scope.index(v) for v in present])
        shape = tuple(arr.shape[present.index(v)] if v in present else 1
                      for v in union_scope)
        return arr.reshape(shape)

    def scalar(self) -> float:
        if self.scope:
            raise ValueError("factor is not a scalar")
        return float(self.table)


def log_factors(factors) -> list[LogFactor]:
    """Each factor's table in log space (zero becomes -inf), in order.
    Callers share the result and do not modify it."""
    with np.errstate(divide="ignore"):
        return [LogFactor(f.scope, np.log(np.asarray(f.table, dtype=float)))
                for f in factors]


def radix_pairs(scope, sizes) -> tuple[tuple[int, int], ...]:
    """Each variable of `scope` with its stride in the row-major numbering
    of the values of `scope`, whose sizes are `sizes`; the last has 1."""
    pairs, stride = [], 1
    for k in range(len(scope) - 1, -1, -1):
        pairs.append((scope[k], stride))
        stride *= sizes[k]
    pairs.reverse()
    return tuple(pairs)


class FlatTable:
    """A LogFactor as a flat list with strides: `pairs` holds each scope
    variable with its stride (`radix_pairs`), in scope order, and `fn(asg)`
    is the entry at `asg` (a list indexed by variable, or a dict), found in
    O(scope)."""

    __slots__ = ("scope", "pairs", "flat")

    def __init__(self, f: LogFactor):
        self.scope = f.scope
        self.pairs = radix_pairs(f.scope, f.table.shape)
        self.flat = f.table.ravel().tolist()

    def __call__(self, asg) -> float:
        i = 0
        for v, s in self.pairs:
            i += s * asg[v]
        return self.flat[i]


def combine(factors: list[LogFactor]) -> LogFactor:
    """Log-space product (elementwise sum) of at least one factor, over the
    union scope in order of first appearance."""
    scope = tuple(dict.fromkeys(v for f in factors for v in f.scope))
    first, *rest = factors
    out = first.aligned(scope)
    for f in rest:
        out = out + f.aligned(scope)
    return LogFactor(scope, out)


def max_out(f: LogFactor, var: int) -> LogFactor:
    """Max-marginalize `var`."""
    scope = tuple(v for v in f.scope if v != var)
    return LogFactor(scope, f.table.max(axis=f.scope.index(var)))
