"""Log-space table algebra shared by the oracles and mini-bucket code."""

from __future__ import annotations

import numpy as np


class LogFactor:
    """A log-space function over an ordered variable scope."""

    __slots__ = ("scope", "table")

    def __init__(self, scope: tuple[int, ...], table: np.ndarray):
        self.scope = tuple(scope)
        self.table = np.asarray(table, dtype=float)

    @classmethod
    def from_linear(cls, scope: tuple[int, ...], table: np.ndarray) -> "LogFactor":
        with np.errstate(divide="ignore"):
            return cls(scope, np.log(np.asarray(table, dtype=float)))

    def aligned(self, union_scope: tuple[int, ...]) -> np.ndarray:
        """View of the table broadcastable over `union_scope` axes."""
        present = [v for v in union_scope if v in self.scope]
        perm = [self.scope.index(v) for v in present]
        arr = np.transpose(self.table, perm)
        shape = tuple(arr.shape[present.index(v)] if v in present else 1
                      for v in union_scope)
        return arr.reshape(shape)

    def restrict(self, assignment: dict[int, int]) -> "LogFactor":
        idx = tuple(assignment[v] if v in assignment else slice(None)
                    for v in self.scope)
        scope = tuple(v for v in self.scope if v not in assignment)
        return LogFactor(scope, np.asarray(self.table[idx]))

    def scalar(self) -> float:
        if self.scope:
            raise ValueError("factor is not a scalar")
        return float(self.table)


def combine(factors: list[LogFactor]) -> LogFactor:
    """Log-space product (elementwise sum) over the union scope."""
    union: list[int] = []
    for f in factors:
        for v in f.scope:
            if v not in union:
                union.append(v)
    scope = tuple(union)
    shape = tuple()
    # Determine full shape from whichever factor carries each axis.
    sizes = {}
    for f in factors:
        for v, d in zip(f.scope, f.table.shape):
            sizes[v] = d
    shape = tuple(sizes[v] for v in scope)
    out = np.zeros(shape)
    for f in factors:
        out = out + f.aligned(scope)
    return LogFactor(scope, out)


def max_out(f: LogFactor, var: int) -> LogFactor:
    """Max-marginalize `var`."""
    scope = tuple(v for v in f.scope if v != var)
    return LogFactor(scope, f.table.max(axis=f.scope.index(var)))
