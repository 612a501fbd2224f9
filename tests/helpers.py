"""Shared fixtures: a hand-checkable network and independent exact-value
oracles."""

from __future__ import annotations

import math
import random
import sys
import warnings
from bisect import insort
from dataclasses import dataclass

import numpy as np

from andor_mpe.factor_ops import LogFactor, combine, max_out
from andor_mpe.heuristics import SmbEvaluator
from andor_mpe.limits import UNLIMITED, Budget, LimitExceeded
from andor_mpe.model import (ROW_NORMALIZATION_TOL, BeliefNetwork, Factor,
                             UAIParseError, _is_integer)
from andor_mpe.search import (NEG_INF, SearchProblem, SearchStats, SolveResult,
                              _AndNode, _assert_cache_bound, _OrNode)
from andor_mpe.structure import (EliminationOrder, Graph, PseudoTree,
                                 _copy_graph, _eliminate, _fill, _unbucket)

TWO_VAR_UAI = """BAYES
2
2 2
2
1 0
2 0 1

2
0.4 0.6

4
0.8 0.2
0.1 0.9
"""


def close(a, b, tol=1e-9):
    if a == -math.inf or b == -math.inf:
        return a == b
    return abs(a - b) <= tol


def random_chain(n: int, seed: int = 0) -> BeliefNetwork:
    """A binary Markov chain 0 -> 1 -> ... -> n-1 with random CPT rows:
    induced width 1, and min-fill gives a pseudo-tree of height about n/2."""
    rng = np.random.default_rng(seed)
    factors = [Factor(scope=(0,), table=rng.dirichlet([1.0, 1.0]), child=0)]
    for v in range(1, n):
        factors.append(Factor(scope=(v - 1, v), child=v,
                              table=rng.dirichlet([1.0, 1.0], size=2)))
    return BeliefNetwork(variables=list(range(n)),
                         domains={v: 2 for v in range(n)}, factors=factors)


def is_ancestor(tree: PseudoTree, a: int, v: int) -> bool:
    """True iff `a` is a proper ancestor of `v` in `tree`."""
    p = tree.parent[v]
    while p is not None:
        if p == a:
            return True
        p = tree.parent[p]
    return False


def validate_pseudo_tree(t: PseudoTree, g: Graph) -> bool:
    """True iff every graph edge joins an ancestor/descendant pair of t."""
    if set(t.parent) != set(g):
        return False
    for v, nbrs in g.items():
        for u in nbrs:
            if u == v:
                continue
            if not (is_ancestor(t, u, v) or is_ancestor(t, v, u)):
                return False
    return True


def restrict(f: LogFactor, assignment: dict[int, int]) -> LogFactor:
    """`f` with the variables of `assignment` fixed to their values."""
    idx = tuple(assignment[v] if v in assignment else slice(None)
                for v in f.scope)
    scope = tuple(v for v in f.scope if v not in assignment)
    return LogFactor(scope, np.asarray(f.table[idx]))


def subtree(tree: PseudoTree, v: int) -> list[int]:
    """All variables of the subtree of `tree` rooted at v, v first."""
    out = [v]
    stack = [v]
    while stack:
        u = stack.pop()
        for c in tree.children[u]:
            out.append(c)
            stack.append(c)
    return out


def reference_min_fill_order(g: Graph, seed: int = 0,
                             budget: Budget = UNLIMITED) -> EliminationOrder:
    """Greedy min-fill ordering; ties broken uniformly with the given seed.

    Returns the order (first eliminated first) and the induced width measured
    while eliminating.

    A test-only reference for `min_fill_order`: it rescans the fill count of
    every remaining vertex at every step, O(n^2 deg^2).
    """
    if not g:
        raise ValueError("empty graph")
    rng = random.Random(seed)
    work = _copy_graph(g)
    order = []
    width = 0
    while work:
        budget.check()
        best_cost = None
        candidates = []
        for v in sorted(work):
            nbrs = sorted(work[v])
            cost = 0
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    if nbrs[j] not in work[nbrs[i]]:
                        cost += 1
            if best_cost is None or cost < best_cost:
                best_cost = cost
                candidates = [v]
            elif cost == best_cost:
                candidates.append(v)
        v = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        nbrs = list(work[v])
        width = max(width, len(nbrs))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                work[nbrs[i]].add(nbrs[j])
                work[nbrs[j]].add(nbrs[i])
        for u in nbrs:
            work[u].discard(v)
        del work[v]
        order.append(v)
    return EliminationOrder(order=tuple(order), induced_width=width)


def reference_ring_min_fill_order(g: Graph, seed: int = 0,
                                  budget: Budget = UNLIMITED) -> EliminationOrder:
    """Greedy min-fill ordering; ties broken uniformly with the given seed.

    A test-only reference for `min_fill_order`, which updates each score by
    a delta from the step's fill edges. This one recounts with `_fill` the
    score of every vertex of the two-hop ring of each eliminated vertex:
    eliminating v changes the neighbor sets of N(v) only, and adds edges only
    inside N(v), so only the scores of N(v) and of the neighbors of N(v),
    taken after the fill edges are added, can change. Vertices sit in buckets
    keyed by score, each bucket a sorted list, as in `min_fill_order`.
    """
    if not g:
        raise ValueError("empty graph")
    rng = random.Random(seed)
    work = _copy_graph(g)
    score = {v: _fill(work, v) for v in work}
    buckets: dict[int, list[int]] = {}
    for v in sorted(work):
        buckets.setdefault(score[v], []).append(v)
    order = []
    width = 0
    while work:
        budget.check()
        candidates = buckets[min(buckets)]
        v = candidates[0] if len(candidates) == 1 else rng.choice(candidates)
        _unbucket(buckets, score.pop(v), v)
        nbrs = _eliminate(work, v)
        width = max(width, len(nbrs))
        stale = nbrs.union(*(work[u] for u in nbrs))
        for u in stale:
            new = _fill(work, u)
            if new != score[u]:
                _unbucket(buckets, score[u], u)
                insort(buckets.setdefault(new, []), u)
                score[u] = new
        order.append(v)
    return EliminationOrder(order=tuple(order), induced_width=width)


def reference_weight(problem: SearchProblem, var: int, asg) -> float:
    """Arc weight into <var, asg[var]>; asg must cover the tree path.

    A test-only reference for the arc weights of `SearchProblem.weight`:
    each of var's tables (`weight_fns[var]`: flat list, (variable, stride)
    pairs, stride of var) is indexed from `asg` on its own."""
    total = 0.0
    for flat, pairs, _ in problem.weight_fns[var]:
        i = 0
        for u, s in pairs:
            i += s * asg[u]
        total += flat[i]
    return total


def reference_child_bounds(problem: SearchProblem, var: int, asg):
    """The evaluator's `h_or` of each child of `var`, as a tuple, and
    their sum taken left to right from 0.0, the bound on the AND node
    <var, asg[var]>; asg must cover the tree path to var.

    A test-only reference for the bounds of `SearchProblem.weight`: one
    `h_or` per child, whatever the evaluator."""
    h_or = problem.evaluator.h_or
    hs = tuple([h_or(c, asg) for c in problem.children[var]])
    total = 0.0
    for h in hs:
        total += h
    return hs, total


def exact_subproblem_values(problem):
    """Exact conditioned value of every node of the context-minimal graph,
    computed from arc weights alone (independent of any heuristic).

    Returns (root value, or_value, and_value): `and_value(X, asg)` is the
    exact value below an AND node (asg must assign X and its ancestors) and
    `or_value(X, asg)` the exact value of the matching OR node.
    """
    tree = problem.tree
    asg: dict[int, int] = {}
    and_values: dict = {}  # keyed by (var, context assignment): complete,
    # since a child's context never mentions variables outside its parent's

    def ex_or(X):
        best = -math.inf
        for x in range(problem.domains[X]):
            asg[X] = x
            best = max(best, reference_weight(problem, X, asg) + ex_and(X))
            del asg[X]
        return best

    def ex_and(X):
        key = (X, tuple(asg[u] for u in problem.contexts[X]))
        if key in and_values:
            return and_values[key]
        total = 0.0
        for c in tree.children[X]:
            total += ex_or(c)
        and_values[key] = total
        return total

    root_v = ex_or(tree.root)

    def and_value(X, full_asg):
        return and_values[(X, tuple(full_asg[u] for u in problem.contexts[X]))]

    def or_value(X, full_asg):
        best = -math.inf
        for x in range(problem.domains[X]):
            path = dict(full_asg)
            path[X] = x
            best = max(best, reference_weight(problem, X, path) + and_value(X, path))
        return best

    return root_v, or_value, and_value


def select_tip(tips, preorder: dict[int, int]):
    """Deterministic tip policy: deepest node, ties by pseudo-tree preorder."""
    return max(tips, key=lambda nd: (nd.depth, -preorder[nd.var]))


def reference_aobf(problem: SearchProblem, budget: Budget = UNLIMITED,
                   on_revise=None) -> SolveResult:
    """Best-first AND/OR graph search (AO*): repeatedly trace the marked
    partial solution tree, expand the tip `select_tip` picks, and revise
    values from it upwards, one depth level at a time, until the root is
    solved. `on_revise(node, old_v, new_v)` is an optional hook.

    A test-only reference for `aobf`: it traces the whole unsolved marked
    tree on every iteration and picks a tip with `select_tip`, where `aobf`
    keeps its tips between iterations."""
    stats = SearchStats()
    if not problem.variables:
        return SolveResult("solved", 0.0, {}, stats)
    tree = problem.tree
    evaluator = problem.evaluator
    asg = [-1] * problem.size
    cache: dict[int, dict] = {v: {} for v in problem.variables}
    root = _OrNode(tree.root, 0, evaluator.h_or(tree.root, asg), None)
    nodes_created = 1

    def revise(tip):
        # Whatever path reaches them, the OR nodes of X sit at depth 2·d(X)
        # and its AND nodes at 2·d(X) + 1 (d: pseudo-tree depth), so every
        # parent is one level up and a level is complete before the sweep
        # reaches it. `up` keeps first-queued order and drops repeats.
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
                    m.v = bestv
                    m.marked = best
                    if newsolved:
                        m.solved = True
                    if changed and m.parent is not None:
                        up[m.parent] = None
            level = up

    status = "solved"
    while not root.solved:
        try:
            budget.check(nodes=nodes_created)
        except LimitExceeded as e:
            status = e.status
            break
        # Trace the unsolved part of the marked partial solution tree. This
        # sets asg on the tip's path, all that weight and h_or read.
        tips = []
        stack = [root]
        while stack:
            nd = stack.pop()
            if isinstance(nd, _OrNode):
                if not nd.children:
                    tips.append(nd)
                elif not nd.marked.solved:
                    stack.append(nd.marked)
            else:
                asg[nd.var] = nd.val
                if not nd.children:
                    tips.append(nd)
                else:
                    for c in nd.children:
                        if not c.solved:
                            stack.append(c)
        tip = select_tip(tips, problem.preorder)
        stats.expansions += 1
        if isinstance(tip, _OrNode):
            X = tip.var
            ctx = problem.contexts[X]
            for x in range(problem.domains[X]):
                asg[X] = x
                w = reference_weight(problem, X, asg)
                key = tuple(asg[u] for u in ctx)
                child = cache[X].get(key)
                if child is None:
                    hs, v0 = reference_child_bounds(problem, X, asg)
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
        revise(tip)

    stats.cache_entries = sum(len(d) for d in cache.values())
    _assert_cache_bound(cache, problem.contexts, problem.domains)
    if status != "solved":
        return SolveResult(status, root.v, None, stats)
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


def reference_aobb(problem: SearchProblem,
                   budget: Budget = UNLIMITED) -> SolveResult:
    """Depth-first branch-and-bound on the same AND/OR graph. At each OR node
    children are tried in decreasing (weight + h) order; a branch is pruned
    when its bound cannot strictly beat the relevant incumbent. Exactly
    solved AND contexts are cached with their bound and reused, so a cached
    context's children are not asked for their bounds again.

    A test-only reference for `aobb`: every cache entry and every
    improvement keeps a copy of its subtree's assignment, where `aobb`
    keeps only each context's choices and reads the solution off the cache
    at the end."""
    stats = SearchStats()
    if not problem.variables:
        return SolveResult("solved", 0.0, {}, stats)
    tree = problem.tree
    domains = problem.domains
    children = problem.children
    contexts = problem.contexts
    asg = [-1] * problem.size
    cache: dict[int, dict] = {v: {} for v in problem.variables}
    incumbent = [NEG_INF, None]

    def maybe_abort():
        budget.check(nodes=sum(len(d) for d in cache.values()))

    def solve_or(X, ub, track=False):
        # Returns (value, assignment-of-subtree); value is exact when > ub,
        # otherwise it is a valid underestimate <= ub.
        stats.expansions += 1
        maybe_abort()
        kids = children[X]
        cands = []
        for x in range(domains[X]):
            asg[X] = x
            w = reference_weight(problem, X, asg)
            key = tuple(asg[u] for u in contexts[X]) if kids else None
            hit = cache[X].get(key)
            if hit is None:
                hs, hv = reference_child_bounds(problem, X, asg)
            else:
                hs, hv = None, hit[0]  # cached entries keep their AND bound
            cands.append((w + hv, x, w, hv, hs, key, hit))
        cands.sort(key=lambda t: (-t[0], t[1]))
        best = NEG_INF
        best_asg = None
        for bound, x, w, hv, hs, key, hit in cands:
            thr = best if best > ub else ub
            if bound <= thr:
                continue
            asg[X] = x
            if not kids:
                val = w
                sub = {}
            else:
                if hit is not None:
                    stats.cache_hits += 1
                    _, vsub, sub = hit
                else:
                    r = solve_and(X, thr - w, hs)
                    if r is None:
                        continue
                    vsub, sub = r
                    cache[X][key] = (hv, vsub, sub)
                    maybe_abort()
                val = w + vsub
            if val > best:
                best = val
                best_asg = dict(sub)
                best_asg[X] = x
                if track:
                    incumbent[0] = best
                    incumbent[1] = best_asg
        asg[X] = -1
        return best, best_asg

    def solve_and(X, ub, hs):
        # Value of the decomposed subproblem below <X, asg[X]>, whose
        # children have the bounds hs; None means provably <= ub.
        stats.expansions += 1
        maybe_abort()
        kids = children[X]
        rest = sum(hs)
        if rest == NEG_INF:
            return None
        total = 0.0
        merged = {}
        for hv, c in zip(hs, kids):
            rest -= hv
            vc, sub = solve_or(c, ub - total - rest)
            if vc <= ub - total - rest:
                return None
            total += vc
            merged.update(sub)
        return total, merged

    status = "solved"
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 10000 + 8 * len(problem.variables)))
    try:
        solve_or(tree.root, NEG_INF, track=True)
    except LimitExceeded as e:
        status = e.status
    finally:
        sys.setrecursionlimit(old_limit)
    stats.cache_entries = sum(len(d) for d in cache.values())
    _assert_cache_bound(cache, problem.contexts, problem.domains)
    if status != "solved":
        return SolveResult(status, incumbent[0], None, stats)
    assignment = dict(incumbent[1]) if incumbent[1] is not None else {}
    for v in problem.variables:
        assignment.setdefault(v, 0)  # every assignment attains -inf
    return SolveResult("solved", incumbent[0], assignment, stats)


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split():
            yield tok, lineno


def _is_normalized(f: Factor, domains: dict[int, int]) -> bool:
    if f.child is None:
        return False
    d = domains[f.child]
    rows = f.table.reshape(-1, d)
    return bool(np.all(np.abs(rows.sum(axis=1) - 1.0) <= ROW_NORMALIZATION_TOL))


def reference_parse_uai(text: str) -> BeliefNetwork:
    """Parse the UAI BAYES format. Unnormalized CPT rows trigger a warning.

    A test-only reference for `parse_uai`: it reads one token at a time and
    builds, checks and normalisation-tests one table per factor, then runs
    `BeliefNetwork.validate`, where `parse_uai` converts and checks all table
    entries as one buffer. `next_int` applies the shared integer rule
    `model._is_integer` before `int()`; apart from that, `_tokens` and
    `_is_normalized` (the former `Factor.is_normalized`), the body is the
    token-at-a-time parser verbatim."""
    it = _tokens(text)
    line = 1

    def next_tok(what: str):
        nonlocal line
        try:
            tok, line = next(it)
            return tok
        except StopIteration:
            raise UAIParseError(f"unexpected end of input, expected {what}", line)

    def next_int(what: str) -> int:
        tok = next_tok(what)
        if not _is_integer(tok):
            raise UAIParseError(f"expected integer {what}, got {tok!r}", line)
        return int(tok)

    def next_float(what: str) -> float:
        tok = next_tok(what)
        try:
            return float(tok)
        except ValueError:
            raise UAIParseError(f"non-numeric entry {tok!r} in {what}", line)

    header = next_tok("header")
    if header.upper() != "BAYES":
        raise UAIParseError(f"expected BAYES header, got {header!r}", line)
    n = next_int("variable count")
    if n < 0:
        raise UAIParseError("negative variable count", line)
    domains = {}
    for v in range(n):
        d = next_int(f"cardinality of variable {v}")
        if d < 1:
            raise UAIParseError(f"cardinality {d} of variable {v} must be >= 1", line)
        domains[v] = d
    m = next_int("factor count")
    if m < 0:
        raise UAIParseError("negative factor count", line)
    scopes = []
    for k in range(m):
        size = next_int(f"scope size of factor {k}")
        if size < 0:
            raise UAIParseError(f"negative scope size of factor {k}", line)
        scope = tuple(next_int(f"scope variable of factor {k}") for _ in range(size))
        for v in scope:
            if v not in domains:
                raise UAIParseError(f"factor {k} references unknown variable {v}", line)
        if len(set(scope)) != len(scope):
            raise UAIParseError(f"factor {k} scope {scope} repeats a variable", line)
        scopes.append(scope)
    factors = []
    unnormalized = []
    for k, scope in enumerate(scopes):
        declared = next_int(f"table size of factor {k}")
        expected = math.prod(domains[v] for v in scope)
        if declared != expected:
            raise UAIParseError(
                f"table length mismatch for factor {k}: declared {declared}, "
                f"scope implies {expected}", line)
        entries = [next_float(f"table of factor {k}") for _ in range(declared)]
        table = np.array(entries, dtype=float).reshape(
            tuple(domains[v] for v in scope))
        f = Factor(scope=scope, table=table, child=scope[-1] if scope else None)
        if not _is_normalized(f, domains):
            unnormalized.append(k)
        factors.append(f)
    extra = next(it, None)
    if extra is not None:
        raise UAIParseError(f"unexpected token {extra[0]!r} after the last table",
                            extra[1])
    net = BeliefNetwork(variables=list(range(n)), domains=domains, factors=factors)
    net.validate()
    if unnormalized:
        warnings.warn(
            f"factors {unnormalized} have unnormalized CPT rows; "
            "solving max-product over the given tables", stacklevel=2)
    return net


def reference_log_factors(factors) -> list[LogFactor]:
    """The old per-factor conversion, `LogFactor.from_linear`: its own
    `np.errstate` and `np.log` for each factor. A test-only reference for
    `factor_ops.log_factors`."""
    out = []
    for f in factors:
        with np.errstate(divide="ignore"):
            out.append(LogFactor(f.scope, np.log(np.asarray(f.table, dtype=float))))
    return out


def reference_combine(factors: list[LogFactor]) -> LogFactor:
    """The old `combine`, verbatim but for its dead first `shape`: it sizes
    the union scope from the factors and adds each aligned table to a zero
    table. A test-only reference for `factor_ops.combine`."""
    union: list[int] = []
    for f in factors:
        for v in f.scope:
            if v not in union:
                union.append(v)
    scope = tuple(union)
    sizes = {}
    for f in factors:
        for v, d in zip(f.scope, f.table.shape):
            sizes[v] = d
    shape = tuple(sizes[v] for v in scope)
    out = np.zeros(shape)
    for f in factors:
        out = out + f.aligned(scope)
    return LogFactor(scope, out)


@dataclass
class MessageRecord:
    origin: int
    dest: int | None  # None: message became a root constant
    factor: LogFactor


def reference_mini_bucket_pass(functions, elim_vars, pos, i_bound,
                               budget=None):
    """One mini-bucket elimination sweep.

    `functions` is a list of LogFactors; every scope variable must be in
    `elim_vars` or the function is misplaced. Buckets are processed in
    elimination order; each bucket is greedily partitioned (first-fit over
    functions sorted by decreasing scope size) into mini-buckets of joint
    scope at most `i_bound` variables, except that a single function wider
    than the bound is kept whole.

    Returns (constant, records): the summed scalar output and the emitted
    messages.

    A test-only reference for `heuristics.compile_smb`, which takes its
    schedule from `mini_bucket_schedule`.
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
            if budget is not None:
                budget.check(entries=entries)
            if not msg.scope:
                constant += msg.scalar()
                records.append(MessageRecord(v, None, msg))
            else:
                dest = min(msg.scope, key=lambda u: pos[u])
                bucket[dest].append(msg)
                records.append(MessageRecord(v, dest, msg))
    return constant, records


def reference_smb(factors: list[LogFactor], tree: PseudoTree, ibound: int,
                  budget=None) -> SmbEvaluator:
    """SMB rows assembled from `reference_mini_bucket_pass` records: each
    message is filed at its origin and every ancestor below its
    destination as (flat list, (variable, stride) pairs, stride of the
    node's parent, 0 at the root or when the parent is not in its scope),
    with strides from the table's shape.

    A test-only reference for `heuristics.compile_smb`."""
    elim = tree.elim
    constant, records = reference_mini_bucket_pass(
        factors, list(elim.order), elim.position, ibound, budget)
    exiting = {v: [] for v in elim.order}
    for rec in records:
        shape = rec.factor.table.shape
        pairs = tuple((u, math.prod(shape[k + 1:]))
                      for k, u in enumerate(rec.factor.scope))
        flat = rec.factor.table.ravel().tolist()
        cur = rec.origin
        while cur is not None and cur != rec.dest:
            p = tree.parent[cur]
            sx = next((s for u, s in pairs if u == p), 0)
            exiting[cur].append((flat, pairs, sx))
            cur = p
    entries = sum(rec.factor.table.size for rec in records)
    return SmbEvaluator(constant, exiting, entries)


class reference_dmb:
    """Dynamic heuristic: a fresh mini-bucket sweep over the conditioned
    subproblem at every evaluated node, from a network's `log_factors`.

    A test-only reference for `heuristics.DmbEvaluator`, which compiles
    each variable's sweep once and replays only its context-dependent
    steps."""

    def __init__(self, factors: list[LogFactor], tree: PseudoTree,
                 i_bound: int, budget: Budget = UNLIMITED):
        self.i_bound = i_bound
        self.budget = budget
        pos = tree.elim.position
        self._pos = pos
        self._logfactors = factors
        self._subtree_vars: dict[int, list[int]] = {}
        self._subtree_set: dict[int, set[int]] = {}
        self._subtree_factors: dict[int, list[int]] = {}
        bucket_of = [min(f.scope, key=lambda v: pos[v]) if f.scope else None
                     for f in factors]
        for v in tree.parent:
            sub = subtree(tree, v)
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
            functions.append(restrict(lf, fixed) if fixed else lf)
        constant, records = reference_mini_bucket_pass(
            functions, self._subtree_vars[var], self._pos, self.i_bound,
            self.budget)
        # every message is consumed inside the subtree; only constants remain
        assert all(r.dest is None or r.dest in ss for r in records)
        return constant
