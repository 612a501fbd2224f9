"""Mini-bucket heuristics: static compilation (SMB) and per-node dynamic
recompilation (DMB). Everything is log-space; bounds overestimate the exact
max-product value of the subproblem they summarize."""

from __future__ import annotations

from dataclasses import dataclass

from .factor_ops import FlatTable, LogFactor, combine, max_out
from .structure import PseudoTree


class MemoryBudgetExceeded(RuntimeError):
    pass


@dataclass
class MessageRecord:
    origin: int
    dest: int | None  # None: message became a root constant
    factor: LogFactor


def mini_bucket_pass(functions, elim_vars, pos, i_bound,
                     max_table_entries=None):
    """One mini-bucket elimination sweep.

    `functions` is a list of LogFactors; every scope variable must be in
    `elim_vars` or the function is misplaced. Buckets are processed in
    elimination order; each bucket is greedily partitioned (first-fit over
    functions sorted by decreasing scope size) into mini-buckets of joint
    scope at most `i_bound` variables, except that a single function wider
    than the bound is kept whole.

    Returns (constant, records): the summed scalar output and the emitted
    messages.
    """
    if i_bound < 1:
        raise ValueError("i-bound must be >= 1")
    bucket: dict[int, list] = {v: [] for v in elim_vars}
    constant = 0.0
    records: list[MessageRecord] = []
    for f in functions:
        if not f.scope:
            constant += f.scalar()
            continue
        b = min(f.scope, key=lambda v: pos[v])
        bucket[b].append(f)
    entries = 0
    for v in elim_vars:
        funcs = bucket[v]
        if not funcs:
            continue
        funcs.sort(key=lambda f: (-len(f.scope), f.scope))
        minis: list[list] = []  # [joint scope set, [factor, ...]]
        for f in funcs:
            for mb in minis:
                u = mb[0] | set(f.scope)
                if len(u) <= i_bound:
                    mb[0] = u
                    mb[1].append(f)
                    break
            else:
                minis.append([set(f.scope), [f]])
        for _, mini in minis:
            msg = max_out(combine(mini), v)
            entries += msg.table.size
            if max_table_entries is not None and entries > max_table_entries:
                raise MemoryBudgetExceeded(
                    f"mini-bucket tables exceed {max_table_entries} entries")
            if not msg.scope:
                constant += msg.scalar()
                records.append(MessageRecord(v, None, msg))
            else:
                dest = min(msg.scope, key=lambda u: pos[u])
                bucket[dest].append(msg)
                records.append(MessageRecord(v, dest, msg))
    return constant, records


@dataclass(eq=False)
class MiniBucketTables:
    """Compiled SMB tables, with messages indexed per pseudo-tree node:
    `exiting[X]` holds every message generated inside X's subtree whose
    destination bucket lies outside it."""

    root_bound: float
    exiting: dict[int, list[FlatTable]]
    table_entries: int


def compile_smb(factors: list[LogFactor], tree: PseudoTree, i_bound: int,
                max_table_entries: int | None = None) -> MiniBucketTables:
    """SMB tables over `tree` of a network's log factors (`log_factors`)."""
    elim = tree.elim
    constant, records = mini_bucket_pass(
        factors, list(elim.order), elim.position, i_bound, max_table_entries)
    exiting: dict[int, list[FlatTable]] = {v: [] for v in elim.order}
    entries = 0
    for rec in records:
        compiled = FlatTable(rec.factor)
        entries += len(compiled.flat)
        cur = rec.origin
        while cur is not None and cur != rec.dest:
            exiting[cur].append(compiled)
            cur = tree.parent[cur]
        if rec.dest is not None and cur is None:
            raise AssertionError("message destination is not an ancestor of its origin")
    return MiniBucketTables(root_bound=constant, exiting=exiting,
                            table_entries=entries)


class SmbEvaluator:
    """Static heuristic: table lookups over the pre-compiled messages."""

    def __init__(self, tables: MiniBucketTables):
        self.tables = tables
        self._exiting = tables.exiting

    def h_or(self, var: int, asg) -> float:
        total = 0.0
        for fn in self._exiting[var]:
            total += fn(asg)
        return total


class DmbEvaluator:
    """Dynamic heuristic: a fresh mini-bucket sweep over the conditioned
    subproblem at every evaluated node, from a network's `log_factors`."""

    def __init__(self, factors: list[LogFactor], tree: PseudoTree,
                 i_bound: int, max_table_entries: int | None = None):
        self.i_bound = i_bound
        self.max_table_entries = max_table_entries
        pos = tree.elim.position
        self._pos = pos
        self._logfactors = factors
        self._subtree_vars: dict[int, list[int]] = {}
        self._subtree_set: dict[int, set[int]] = {}
        self._subtree_factors: dict[int, list[int]] = {}
        bucket_of = [min(f.scope, key=lambda v: pos[v]) if f.scope else None
                     for f in factors]
        for v in tree.parent:
            sub = tree.subtree(v)
            sub.sort(key=lambda u: pos[u])
            self._subtree_vars[v] = sub
            ss = set(sub)
            self._subtree_set[v] = ss
            self._subtree_factors[v] = [k for k, b in enumerate(bucket_of) if b in ss]

    def h_or(self, var: int, asg) -> float:
        ss = self._subtree_set[var]
        functions = []
        for k in self._subtree_factors[var]:
            lf = self._logfactors[k]
            fixed = {u: asg[u] for u in lf.scope if u not in ss}
            functions.append(lf.restrict(fixed) if fixed else lf)
        constant, records = mini_bucket_pass(
            functions, self._subtree_vars[var], self._pos, self.i_bound,
            self.max_table_entries)
        # every message is consumed inside the subtree; only constants remain
        assert all(r.dest is None or r.dest in ss for r in records)
        return constant
