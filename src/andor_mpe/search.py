"""AND/OR graph search over the context-minimal graph: best-first (AOBF)
and depth-first branch-and-bound (AOBB) with full context caching."""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass

from .factor_ops import radix_pairs
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

    Both searches expand an OR node of X with one call, `weight(X, asg,
    cache)`, which gives every value of X its arc weight, its integer
    context key, its cache entry and, on a miss, its children's bounds.
    The only other model query is AOBF's `evaluator.h_or(root, asg)`.

    Every table an expansion of X reads has its scope in X's context: X's
    arc-weight tables and, with an evaluator that has `exiting` rows
    (`SmbEvaluator`), each child's rows, whose sum is the child's `h_or`.
    So with asg[X] = 0 each table's flat index is a base, and its index at
    X = x is the base plus its stride of X times x. A table's row is its
    flat list, its (variable, stride) pairs (`radix_pairs`) and its stride
    of X. `weight_fns[X]` holds the rows of X's arc-weight tables, built
    here, and `_kids[X]` each child's `exiting` rows, which `compile_smb`
    built with their stride of X. A context's integer key is
    its values read as a mixed-radix number (`context_key`), so the key of
    X = x is the key of X = 0 plus x. Any other evaluator (`DmbEvaluator`)
    is asked `h_or(c, asg)` for each child c on each miss. It may raise
    LimitExceeded; a search then ends with its status, as when its own
    budget runs out.
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
        # Rows are built in place, without a call per table: on a deep chain
        # each X is expanded about once, so building them must cost no more
        # than the per-value lookups they replace.
        self.weight_fns: dict[int, list[tuple]] = {v: [] for v in self.variables}
        depth = tree.depth
        for f in factors:
            budget.check()
            X = max(f.scope, key=depth.__getitem__, default=tree.root)
            pairs = radix_pairs(f.scope, f.table.shape)
            self.weight_fns[X].append(
                (f.table.ravel().tolist(), pairs, dict(pairs).get(X, 0)))
        exiting = getattr(evaluator, "exiting", None)
        self._kids = {X: None if exiting is None
                      else tuple(exiting[c] for c in self.children[X])
                      for X in self.variables}

    def context_key(self, X: int, asg) -> int:
        """The values of `contexts[X]` in `asg` as one mixed-radix integer,
        X's value last."""
        key = 0
        for u in self.contexts[X]:
            key = key * self.domains[u] + asg[u]
        return key

    def weight(self, X: int, asg, cache) -> list[tuple]:
        """One expansion of an OR node of X: for each value x, in order,
        (w, key, hit, hs, hv). w is the arc weight into <X, x>, key the
        integer key of X's context with X = x, and hit `cache`'s entry
        under it or None. On a miss, hs is the tuple of the children's
        bounds and hv their sum taken left to right from 0.0, the bound on
        <X, x>; on a hit both are None. asg (a list or a dict) must assign
        X's ancestors; this call writes asg[X]."""
        domains = self.domains
        asg[X] = 0
        kb = 0  # context_key, inline
        for u in self.contexts[X]:
            kb = kb * domains[u] + asg[u]
        wrows = []
        for flat, pairs, sx in self.weight_fns[X]:
            b = 0
            for u, s in pairs:
                b += s * asg[u]
            wrows.append((flat, b, sx))
        kids = self._kids[X]
        krows = None
        out = []
        for x in range(domains[X]):
            w = 0.0
            for flat, b, sx in wrows:
                w += flat[b + sx * x]
            key = kb + x
            hit = cache.get(key)
            if hit is not None:
                out.append((w, key, hit, None, None))
                continue
            if kids is None:
                asg[X] = x
                h_or = self.evaluator.h_or
                hs = tuple([h_or(c, asg) for c in self.children[X]])
            else:
                if krows is None:  # bases as of asg[X] = 0
                    krows = []
                    for tabs in kids:
                        rows = []
                        for flat, pairs, sx in tabs:
                            b = 0
                            for u, s in pairs:
                                b += s * asg[u]
                            rows.append((flat, b, sx))
                        krows.append(rows)
                hs = []
                for rows in krows:
                    h = 0.0
                    for flat, b, sx in rows:
                        h += flat[b + sx * x]
                    hs.append(h)
                hs = tuple(hs)
            hv = 0.0
            for h in hs:
                hv += h
            out.append((w, key, None, hs, hv))
        return out


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
    # hs: the children's bounds from `SearchProblem.weight`, None once expanded
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

    An OR node is expanded with one `problem.weight` call. Its AND children
    are shared through a cache per variable, keyed by the integer key of
    their context, and each new one keeps its children's bounds until it
    is expanded.

    `budget.check` counts every node created, before the first expansion
    and after each one."""
    stats = SearchStats()
    if not problem.variables:
        return SolveResult("solved", 0.0, {}, stats)
    tree = problem.tree
    evaluator = problem.evaluator
    preorder = problem.preorder
    # asg[X] is the value of X's AND node in the tree, for each X that has
    # one. A tip's ancestors all have one, and `weight` reads only those;
    # the other entries may be stale.
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
                found = cache[X]
                for x, (w, key, child, hs, hv) in enumerate(
                        problem.weight(X, asg, found)):
                    if child is None:
                        child = found[key] = _AndNode(X, x, tip.depth + 1, hv, w, hs)
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
    choices, under the integer key of their context, and reused, so a
    cached context's children are not asked for their bounds again. Each
    OR node's candidates come from one `problem.weight` call. The solution
    is read off the cache at the end.

    `budget.check` runs at each OR node expansion, and counts the cache
    entries each time one is stored."""
    stats = SearchStats()
    if not problem.variables:
        return SolveResult("solved", 0.0, {}, stats)
    tree = problem.tree
    children = problem.children
    asg = [-1] * problem.size
    # cache[X][context key] = (bound, value, children's chosen values)
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
        for x, (w, key, hit, hs, hv) in enumerate(problem.weight(X, asg, cache[X])):
            if hit is not None:
                hv = hit[0]  # cached entries keep their AND bound
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
        # break the closures' cycle, which would keep the problem alive
        solve_or = solve_and = None
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
            key = problem.context_key(X, asg)
            stack.extend(zip(children[X], cache[X][key][2]))
    return SolveResult("solved", incumbent, assignment, stats)
