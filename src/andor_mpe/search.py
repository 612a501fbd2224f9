"""AND/OR graph search over the context-minimal graph: best-first (AOBF)
and depth-first branch-and-bound (AOBB) with full context caching."""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

from .factor_ops import FlatTable
from .limits import UNLIMITED, Budget, LimitExceeded
from .model import BeliefNetwork
from .structure import PseudoTree, context_cache_bound

NEG_INF = float("-inf")


@dataclass
class SearchStats:
    expansions: int = 0
    cache_hits: int = 0
    cache_entries: int = 0


@dataclass
class SolveResult:
    status: str  # solved | timeout | memout
    mpe_log: float
    assignment: dict[int, int] | None
    stats: SearchStats
    marked_weight_sum: float | None = None


class SearchProblem:
    """Immutable per-instance precomputation shared by both algorithms.

    `factors` are `net`'s `log_factors`. Every CPT is statically assigned
    to its deepest scope variable in the pseudo-tree (a scalar factor to
    the root), so each CPT contributes to exactly one arc weight along any
    root-to-leaf path. `budget.check()` runs before each is assigned.

    The search asks the model only for `weight(X, asg)` and for the
    evaluator's one query, `h_or(X, asg)`, an upper bound on the OR node of
    X. `asg` is a list indexed by variable or a dict; it must assign every
    pseudo-tree ancestor of X, and X itself for `weight`. The bound on the
    subproblem below the AND node <X, asg[X]> is the sum of its children's
    `h_or` (`child_bounds`); each search asks for those once per AND node
    and keeps them until it expands the node. `h_or` may raise
    LimitExceeded (`DmbEvaluator` under its budget); a search then ends
    with its status, as when its own budget runs out.
    """

    def __init__(self, net: BeliefNetwork, tree: PseudoTree, evaluator, factors,
                 budget: Budget = UNLIMITED):
        self.tree = tree
        self.contexts = tree.contexts
        self.evaluator = evaluator
        self.variables = list(net.variables)
        self.size = max(self.variables) + 1 if self.variables else 0
        self.domains = net.domains
        self.children = tree.children
        self.preorder = {v: tree.preorder_index(v) for v in self.variables}
        self.weight_fns: dict[int, list[FlatTable]] = {v: [] for v in self.variables}
        for f in factors:
            budget.check()
            wvar = max(f.scope, key=lambda u: tree.depth[u], default=tree.root)
            self.weight_fns[wvar].append(FlatTable(f))

    def weight(self, var: int, asg) -> float:
        """Arc weight into <var, asg[var]>; asg must cover the tree path."""
        total = 0.0
        for fn in self.weight_fns[var]:
            total += fn(asg)
        return total

    def child_bounds(self, var: int, asg):
        """The evaluator's `h_or` of each child of `var`, as a tuple, and
        their sum taken left to right from 0.0, the bound on the AND node
        <var, asg[var]>; asg must cover the tree path to var."""
        h_or = self.evaluator.h_or
        hs = tuple([h_or(c, asg) for c in self.children[var]])
        total = 0.0
        for h in hs:
            total += h
        return hs, total


# in_tree: the node is in AOBF's unsolved marked partial solution tree. A
# node that becomes solved keeps the flag; nothing reads it then.
class _OrNode:
    __slots__ = ("var", "v", "children", "marked", "solved", "parent", "depth",
                 "in_tree")

    def __init__(self, var, depth, v, parent):
        self.var = var
        self.v = v
        self.children = []
        self.marked = None
        self.solved = False
        self.parent = parent
        self.depth = depth
        self.in_tree = False


class _AndNode:
    # hs: the children's bounds from `child_bounds`, None once expanded
    __slots__ = ("var", "val", "v", "children", "solved", "parents", "w",
                 "depth", "hs", "in_tree")

    def __init__(self, var, val, depth, v, w, hs):
        self.var = var
        self.val = val
        self.v = v
        self.children = []
        self.solved = not hs  # no children
        self.parents = []
        self.w = w
        self.depth = depth
        self.hs = hs
        self.in_tree = False


def _tip_key(nd, preorder: dict[int, int]) -> int:
    """Deterministic tip policy as one min-heap key: deepest node first, ties
    by pseudo-tree preorder (every preorder index is below len(preorder)).
    The key depends only on the variable and the node kind, and a partial
    solution tree holds at most one OR and one AND node per variable, so no
    two of its tips share a key."""
    return preorder[nd.var] - nd.depth * len(preorder)


def _assert_cache_bound(cache, contexts, domains):
    for var, entries in cache.items():
        bound = context_cache_bound(contexts[var], domains)
        if len(entries) > bound:
            raise AssertionError(
                f"cache entries for variable {var} ({len(entries)}) exceed the "
                f"context bound {bound}")


def aobf(problem: SearchProblem, budget: Budget = UNLIMITED,
         on_revise=None) -> SolveResult:
    """Best-first AND/OR graph search (AO*): repeatedly expand the tip of the
    unsolved marked partial solution tree that `_tip_key` puts first, and
    revise values from it upwards, one depth level at a time, until the root
    is solved. `on_revise(node, old_v, new_v)` is an optional hook.

    The tips are kept between expansions in a heap of their keys. When
    `revise` switches the mark of an OR node in the tree, the old marked
    subtree leaves the tree at once and the new one is traced in after the
    sweep; no other part of the tree is traced again. A key whose last tip
    left the tree stays in the heap and is skipped when popped.

    `budget.check` counts every node created, before the first expansion
    and after each one."""
    stats = SearchStats()
    if not problem.variables:
        return SolveResult("solved", 0.0, {}, stats)
    tree = problem.tree
    evaluator = problem.evaluator
    preorder = problem.preorder
    # asg[X] is the value of X's AND node in the tree, for each X that has
    # one. A tip's ancestors all have one, and weight and h_or read only
    # those; the other entries may be stale.
    asg = [-1] * problem.size
    cache: dict[int, dict] = {v: {} for v in problem.variables}
    root = _OrNode(tree.root, 0, float("inf"), None)  # h_or set below
    nodes_created = 1
    tips = []  # heap of tip keys, each at most once
    tip_at = {}  # key in tips -> the last tip attached with it

    def attach(stack):
        # Trace the nodes on `stack` and their unsolved marked subtrees into
        # the tree: set asg for each AND node entered and push each tip.
        while stack:
            nd = stack.pop()
            if nd.solved or nd.in_tree:
                continue
            nd.in_tree = True
            if isinstance(nd, _AndNode):
                asg[nd.var] = nd.val
                stack.extend(nd.children)
            elif nd.children:
                stack.append(nd.marked)
            if not nd.children:
                key = _tip_key(nd, preorder)
                if key not in tip_at:
                    heapq.heappush(tips, key)
                tip_at[key] = nd

    def detach(nd):
        # Take nd and its marked subtree out of the tree, down to solved
        # nodes and nodes already out of it.
        stack = [nd]
        while stack:
            nd = stack.pop()
            if nd.solved or not nd.in_tree:
                continue
            nd.in_tree = False
            if isinstance(nd, _AndNode):
                stack.extend(nd.children)
            elif nd.marked is not None:
                stack.append(nd.marked)

    def revise(tip):
        # Whatever path reaches them, the OR nodes of X sit at depth 2·d(X)
        # and its AND nodes at 2·d(X) + 1 (d: pseudo-tree depth), so every
        # parent is one level up and a level is complete before the sweep
        # reaches it. `up` keeps first-queued order and drops repeats.
        # Returns the OR nodes of the tree whose mark switched. AND nodes are
        # shared, so OR parents outside the tree are revised too; their
        # marks move no node in or out of the tree.
        switched = []
        level = [tip]
        while level:
            up = {}
            for m in level:
                if isinstance(m, _AndNode):
                    newv = 0.0
                    newsolved = True
                    for c in m.children:
                        newv += c.v
                        if not c.solved:
                            newsolved = False
                    changed = (newv != m.v) or (newsolved and not m.solved)
                    if on_revise is not None:
                        on_revise(m, m.v, newv)
                    m.v = newv
                    if newsolved:
                        m.solved = True
                    if changed:
                        for p in m.parents:
                            if p.marked is m:
                                up[p] = None
                else:
                    best = None
                    bestv = NEG_INF
                    for c in m.children:
                        val = c.w + c.v
                        if best is None or val > bestv:
                            best = c
                            bestv = val
                    newsolved = best.solved
                    changed = (bestv != m.v) or (newsolved and not m.solved)
                    if on_revise is not None:
                        on_revise(m, m.v, bestv)
                    if best is not m.marked and m.in_tree:
                        if m.marked is not None:
                            detach(m.marked)
                        switched.append(m)
                    m.v = bestv
                    m.marked = best
                    if newsolved:
                        m.solved = True
                    if changed and m.parent is not None:
                        up[m.parent] = None
            level = up
        return switched

    status = "solved"
    try:
        root.v = evaluator.h_or(tree.root, asg)
        attach([root])
        budget.check(nodes=nodes_created)
        while not root.solved:
            tip = tip_at.pop(heapq.heappop(tips))
            while not tip.in_tree:  # it left the tree after it was attached
                tip = tip_at.pop(heapq.heappop(tips))
            stats.expansions += 1
            if isinstance(tip, _OrNode):
                X = tip.var
                ctx = problem.contexts[X]
                for x in range(problem.domains[X]):
                    asg[X] = x
                    w = problem.weight(X, asg)
                    key = tuple(asg[u] for u in ctx)
                    child = cache[X].get(key)
                    if child is None:
                        hs, v0 = problem.child_bounds(X, asg)
                        child = _AndNode(X, x, tip.depth + 1, v0, w, hs)
                        cache[X][key] = child
                        nodes_created += 1
                    else:
                        stats.cache_hits += 1
                    tip.children.append(child)
                    child.parents.append(tip)
            else:
                for cvar, h in zip(problem.children[tip.var], tip.hs):
                    tip.children.append(_OrNode(cvar, tip.depth + 1, h, tip))
                    nodes_created += 1
                tip.hs = None
            budget.check(nodes=nodes_created)
            stack = [m.marked for m in revise(tip) if m.in_tree]
            if isinstance(tip, _AndNode):
                # Its value is already the sum of the new bounds, so revise
                # moved no mark and it is still in the tree.
                stack.extend(tip.children)
            attach(stack)
    except LimitExceeded as e:
        status = e.status

    stats.cache_entries = sum(len(d) for d in cache.values())
    if status != "solved":
        return SolveResult(status, root.v, None, stats)
    _assert_cache_bound(cache, problem.contexts, problem.domains)
    # Read the solution off the marked arcs.
    assignment: dict[int, int] = {}
    weight_sum = 0.0
    stack = [root]
    while stack:
        nd = stack.pop()
        if isinstance(nd, _OrNode):
            m = nd.marked
            weight_sum += m.w
            assignment[m.var] = m.val
            stack.append(m)
        else:
            stack.extend(nd.children)
    assert len(assignment) == len(problem.variables)
    if not (root.v == NEG_INF and weight_sum == NEG_INF):
        assert abs(weight_sum - root.v) <= 1e-9 * max(1.0, abs(root.v)), \
            "marked arc weights disagree with the root value"
    return SolveResult("solved", root.v, assignment, stats,
                       marked_weight_sum=weight_sum)


def aobb(problem: SearchProblem, budget: Budget = UNLIMITED) -> SolveResult:
    """Depth-first branch-and-bound on the same AND/OR graph. At each OR node
    children are tried in decreasing (weight + h) order; a branch is pruned
    when its bound cannot strictly beat the relevant incumbent. Exactly
    solved AND contexts are cached with their bound and their children's
    choices, and reused, so a cached context's children are not asked for
    their bounds again. The solution is read off the cache at the end.

    `budget.check` runs at each OR node expansion, and counts the cache
    entries each time one is stored."""
    stats = SearchStats()
    if not problem.variables:
        return SolveResult("solved", 0.0, {}, stats)
    tree = problem.tree
    domains = problem.domains
    children = problem.children
    contexts = problem.contexts
    asg = [-1] * problem.size
    # cache[X][context values] = (bound, value, children's chosen values)
    cache: dict[int, dict] = {v: {} for v in problem.variables}
    incumbent = NEG_INF  # the root's best value so far, reported on timeout

    def solve_or(X, ub, track=False):
        # Returns (value, chosen value of X); value is exact when > ub,
        # otherwise it is a valid underestimate <= ub. The choice is None
        # when no value of X beats -inf.
        nonlocal incumbent
        stats.expansions += 1
        budget.check()
        kids = children[X]
        cands = []
        for x in range(domains[X]):
            asg[X] = x
            w = problem.weight(X, asg)
            key = tuple(asg[u] for u in contexts[X]) if kids else None
            hit = cache[X].get(key)
            if hit is None:
                hs, hv = problem.child_bounds(X, asg)
            else:
                hs, hv = None, hit[0]  # cached entries keep their AND bound
            cands.append((w + hv, x, w, hv, hs, key, hit))
        cands.sort(key=lambda t: (-t[0], t[1]))
        best = NEG_INF
        best_x = None
        for bound, x, w, hv, hs, key, hit in cands:
            thr = best if best > ub else ub
            if bound <= thr:
                continue
            asg[X] = x
            if not kids:
                val = w
            else:
                if hit is not None:
                    stats.cache_hits += 1
                    vsub = hit[1]
                else:
                    r = solve_and(X, thr - w, hs)
                    if r is None:
                        continue
                    vsub, choices = r
                    cache[X][key] = (hv, vsub, choices)
                    stats.cache_entries += 1
                    budget.check(nodes=stats.cache_entries)
                val = w + vsub
            if val > best:
                best = val
                best_x = x
                if track:
                    incumbent = best
        asg[X] = -1
        return best, best_x

    def solve_and(X, ub, hs):
        # (value, children's chosen values) of the decomposed subproblem
        # below <X, asg[X]>, whose children have the bounds hs; None means
        # provably <= ub.
        stats.expansions += 1
        kids = children[X]
        rest = sum(hs)
        if rest == NEG_INF:
            return None
        total = 0.0
        choices = []
        for hv, c in zip(hs, kids):
            rest -= hv
            vc, xc = solve_or(c, ub - total - rest)
            if vc <= ub - total - rest:
                return None
            total += vc
            choices.append(xc)
        return total, tuple(choices)

    status = "solved"
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 8 * len(problem.variables)))
    try:
        root_x = solve_or(tree.root, NEG_INF, track=True)[1]
    except LimitExceeded as e:
        status = e.status
    finally:
        sys.setrecursionlimit(old_limit)
    if status != "solved":
        return SolveResult(status, incumbent, None, stats)
    _assert_cache_bound(cache, problem.contexts, problem.domains)
    if root_x is None:  # every assignment attains -inf
        return SolveResult("solved", incumbent,
                           dict.fromkeys(problem.variables, 0), stats)
    # A context holds only its variable and that variable's ancestors, so
    # the solution's path finds each entry under the key it was stored with.
    assignment: dict[int, int] = {}
    stack = [(tree.root, root_x)]
    while stack:
        X, x = stack.pop()
        assignment[X] = asg[X] = x
        if children[X]:
            choices = cache[X][tuple(asg[u] for u in contexts[X])][2]
            stack.extend(zip(children[X], choices))
    return SolveResult("solved", incumbent, assignment, stats)
