"""Mini-bucket heuristics: static compilation (SMB) and per-node dynamic
recompilation (DMB). Everything is log-space; bounds overestimate the exact
max-product value of the subproblem they summarize."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .factor_ops import FlatTable, LogFactor, combine, max_out
from .limits import UNLIMITED, Budget
from .structure import PseudoTree


def mini_bucket_schedule(scopes, elim_vars, pos, i_bound, dims, budget=None):
    """The shape of one mini-bucket elimination sweep, from scopes alone.

    `scopes` are the ordered scopes of the input functions; every scope
    variable must be in `elim_vars`, or the function is misplaced. Buckets
    are processed in elimination order; each bucket is greedily partitioned
    (first-fit over functions sorted by decreasing scope size, then by
    scope) into mini-buckets of joint scope at most `i_bound` variables,
    except that a single function wider than the bound is kept whole.

    Returns (constants, steps). `constants` are the indices of the empty
    scopes. Step j is (var, members, union, dest): the mini-bucket of
    functions `members`, whose tables are added in that order over `union`
    (their variables in order of first appearance), eliminates `var` and
    emits function len(scopes) + j over `union` without `var`. It joins the
    bucket of `dest`, its earliest variable, or is a constant when `dest`
    is None. Under a `budget`, each message scheduled is followed by
    `budget.check` of the entries of all messages so far, sized by `dims`
    (variable -> domain size, read only then).
    """
    if i_bound < 1:
        raise ValueError("i-bound must be >= 1")
    scopes = list(scopes)
    key = pos.__getitem__
    # a bucket holds (-len(scope), scope, index) and sorts by scope as the
    # rule says; ties keep the order of arrival, which is index order
    bucket: dict[int, list] = {v: [] for v in elim_vars}
    constants = []
    for k, scope in enumerate(scopes):
        if scope:
            bucket[min(scope, key=key)].append((-len(scope), scope, k))
        else:
            constants.append(k)
    steps = []
    entries = 0
    for v in elim_vars:
        funcs = bucket[v]
        if not funcs:
            continue
        funcs.sort()
        minis: list[list] = []  # [joint scope set, [function index, ...]]
        for _, scope, k in funcs:
            fs = set(scope)
            for mb in minis:
                u = mb[0] | fs
                if len(u) <= i_bound:
                    mb[0] = u
                    mb[1].append(k)
                    break
            else:
                minis.append([fs, [k]])
        for _, members in minis:
            union = tuple(dict.fromkeys(
                [u for k in members for u in scopes[k]]))
            scope = tuple([u for u in union if u != v])
            if budget is not None:
                entries += math.prod([dims[u] for u in scope])
                budget.check(entries=entries)
            if scope:
                dest = min(scope, key=key)
                bucket[dest].append((-len(scope), scope, len(scopes)))
            else:
                dest = None
            scopes.append(scope)
            steps.append((v, members, union, dest))
    return constants, steps


@dataclass(eq=False)
class MiniBucketTables:
    """Compiled SMB tables, with messages indexed per pseudo-tree node:
    `exiting[X]` holds every message generated inside X's subtree whose
    destination bucket lies outside it."""

    root_bound: float
    exiting: dict[int, list[FlatTable]]
    table_entries: int


def compile_smb(factors: list[LogFactor], tree: PseudoTree, i_bound: int,
                budget: Budget = UNLIMITED) -> MiniBucketTables:
    """SMB tables over `tree` of a network's log factors (`log_factors`):
    each message of the `mini_bucket_schedule` sweep, scheduled under
    `budget` and built after a `budget.check()`, is indexed at its origin
    and every ancestor below its destination."""
    elim = tree.elim
    constants, steps = mini_bucket_schedule(
        [f.scope for f in factors], elim.order, elim.position, i_bound,
        _domain_sizes(factors), budget)
    constant = 0.0
    for k in constants:
        constant += factors[k].scalar()
    funcs = list(factors)
    exiting: dict[int, list[FlatTable]] = {v: [] for v in elim.order}
    entries = 0
    for v, members, _, dest in steps:
        budget.check()
        msg = max_out(combine([funcs[k] for k in members]), v)
        funcs.append(msg)
        if dest is None:
            constant += msg.scalar()
        compiled = FlatTable(msg)
        entries += len(compiled.flat)
        cur = v
        while cur is not None and cur != dest:
            exiting[cur].append(compiled)
            cur = tree.parent[cur]
        if dest is not None and cur is None:
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
    """Dynamic heuristic: the mini-bucket sweep over the subproblem below
    each evaluated node, conditioned on the node's context, from a
    network's `log_factors`.

    The sweep below a variable has the same shape at every node: which
    factors reach outside its subtree (the cut factors), the buckets, the
    mini-buckets and the message scopes. So each variable's sweep is
    compiled once, on its first `h_or`. Every step that no cut factor feeds
    runs then; a call indexes each cut factor's table with the context and
    replays only the other steps, with the same additions in the same
    order, so it returns the same bits as the full sweep. `budget.check()`
    runs before each factor is filed and, in a compile, before each step;
    the schedule runs under `budget` too.
    """

    def __init__(self, factors: list[LogFactor], tree: PseudoTree,
                 i_bound: int, budget: Budget = UNLIMITED):
        self.i_bound = i_bound
        self._budget = budget
        self._tree = tree
        self._pos = pos = tree.elim.position
        self._factors = factors
        self._dims = _domain_sizes(factors)
        self._by_bucket: dict[int, list[int]] = {v: [] for v in tree.parent}
        for k, f in enumerate(factors):
            budget.check()
            if f.scope:
                self._by_bucket[min(f.scope, key=pos.__getitem__)].append(k)
        # dfs_order is a preorder: a subtree is the slice of it that starts
        # at its root and spans the subtree's size
        self._size = size = dict.fromkeys(tree.parent, 1)
        for v in reversed(tree.dfs_order):
            p = tree.parent[v]
            if p is not None:
                size[p] += size[v]
        self._plans: dict[int, tuple] = {}

    def h_or(self, var: int, asg) -> float:
        plan = self._plans.get(var)
        if plan is None:
            plan = self._plans[var] = self._compile(var)
        total, template, cuts, steps = plan
        vals = template.copy()
        for i, fixed, table in cuts:
            vals[i] = table[tuple([asg[u] for u in fixed])]
        for first, rest, axis, out, perm, shape, after in steps:
            acc = vals[first]
            for i in rest:
                acc = acc + vals[i]
            msg = _max_reduce(acc, axis)
            if out is None:
                total += float(msg)
                for c in after:
                    total += c
            else:
                if perm is not None:
                    msg = msg.transpose(perm)
                if shape is not None:
                    msg = msg.reshape(shape)
                vals[out] = msg
        return total

    def _compile(self, var: int) -> tuple:
        """(constant, template, cuts, steps) of `var`'s sweep.

        A call copies `template`, the list of arrays that the steps read,
        and fills its gaps: each cut (slot, fixed variables, table) with the
        table indexed by the fixed variables' values, and each message step
        with its output. A step (first, rest, axis, out, perm, shape, after)
        adds the arrays in slots `first` and `rest`, maximizes over `axis`,
        and either puts the message, transposed by `perm` and reshaped to
        `shape` for its reader, in slot `out`, or, when `out` is None, adds
        the constant and then the context-free constants `after` it to the
        total, which starts from `constant`.
        """
        tree, pos, dims = self._tree, self._pos, self._dims
        start = tree.preorder_index(var)
        sub = sorted(tree.dfs_order[start:start + self._size[var]],
                     key=pos.__getitem__)
        inside = set(sub)
        factors = [self._factors[k] for u in sub for k in self._by_bucket[u]]
        fixed = [tuple(u for u in f.scope if u not in inside) for f in factors]
        scopes = [tuple(u for u in f.scope if u in inside) for f in factors]
        constants, steps = mini_bucket_schedule(
            scopes, sub, pos, self.i_bound, dims, self._budget)
        # every message is consumed inside the subtree; only constants remain
        assert all(dest is None or dest in inside for *_, dest in steps)
        n = len(factors)
        reader = {k: j for j, step in enumerate(steps) for k in step[1]}
        # function index -> its LogFactor, or None when it reads the context
        value = [None if fx else f for f, fx in zip(factors, fixed)]
        consts = [value[k].scalar() for k in constants]  # or a step's `after`
        template: list = []
        slot: dict[int, int] = {}  # dynamic message -> its slot
        cuts, dynamic = [], []
        for j, (v, members, union, dest) in enumerate(steps):
            self._budget.check()
            if all(value[k] is not None for k in members):
                msg = max_out(combine([value[k] for k in members]), v)
                value.append(msg)
                if dest is None:
                    consts.append(msg.scalar())
                continue
            value.append(None)
            slots = []
            p = next(i for i, k in enumerate(members) if value[k] is None)
            if p:  # fold the context-free prefix of the sum
                acc = value[members[0]].aligned(union)
                for k in members[1:p]:
                    acc = acc + value[k].aligned(union)
                slots.append(len(template))
                template.append(acc)
            for k in members[p:]:
                if k in slot:
                    slots.append(slot.pop(k))
                    continue
                slots.append(len(template))
                if value[k] is not None:
                    template.append(value[k].aligned(union))
                else:
                    template.append(None)
                    cuts.append((slots[-1], fixed[k],
                                 factors[k].aligned(fixed[k] + union)))
            out = perm = shape = after = None
            if dest is None:
                after = []
                consts.append(after)
            else:
                out = slot[n + j] = len(template)
                template.append(None)
                scope = tuple(u for u in union if u != v)
                perm, shape = _broadcast(scope, steps[reader[n + j]][2], dims)
            dynamic.append((slots[0], tuple(slots[1:]), union.index(v), out,
                            perm, shape, after))
        constant, tail = 0.0, None
        for c in consts:
            if isinstance(c, list):
                tail = c
            elif tail is None:
                constant += c
            else:
                tail.append(c)
        return constant, template, cuts, dynamic


_max_reduce = np.maximum.reduce  # ndarray.max without its wrapper


def _domain_sizes(factors) -> dict[int, int]:
    return {v: d for f in factors for v, d in zip(f.scope, f.table.shape)}


def _broadcast(scope, union, dims):
    """(perm, shape) that make a table over `scope` broadcast over `union`;
    each is None when it is not needed. A table whose variables end
    `union`, in its order, broadcasts as it is."""
    present = [u for u in union if u in scope]
    perm = None
    if present != list(scope):
        perm = tuple(scope.index(u) for u in present)
    shape = None
    if present != list(union[len(union) - len(present):]):
        shape = tuple(dims[u] if u in scope else 1 for u in union)
    return perm, shape
