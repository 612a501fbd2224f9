"""Shared fixtures: a hand-checkable network and independent exact-value
oracles."""

from __future__ import annotations

import math
import random

from andor_mpe.structure import EliminationOrder, Graph, _copy_graph

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


def reference_min_fill_order(g: Graph, seed: int = 0) -> EliminationOrder:
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
            best = max(best, problem.weight(X, asg) + ex_and(X))
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
            best = max(best, problem.weight(X, path) + and_value(X, path))
        return best

    return root_v, or_value, and_value
