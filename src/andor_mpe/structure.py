"""Min-fill elimination orders, pseudo-trees and cache contexts."""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field

from .limits import UNLIMITED, Budget

Graph = dict[int, set[int]]


@dataclass(frozen=True)
class EliminationOrder:
    order: tuple[int, ...]  # first entry eliminated first
    induced_width: int

    @property
    def position(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.order)}


@dataclass(eq=False)
class PseudoTree:
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    root: int
    height: int
    depth: dict[int, int]
    dfs_order: tuple[int, ...]  # preorder
    contexts: dict[int, tuple[int, ...]]  # see build_pseudo_tree
    elim: EliminationOrder | None = None
    _preorder_index: dict[int, int] = field(default=None, repr=False)

    def __post_init__(self):
        if self._preorder_index is None:
            self._preorder_index = {v: i for i, v in enumerate(self.dfs_order)}

    def preorder_index(self, v: int) -> int:
        return self._preorder_index[v]


def _copy_graph(g: Graph) -> Graph:
    return {v: set(nb) for v, nb in g.items()}


def _fill(work: Graph, v: int) -> int:
    """Number of missing edges among the neighbors of v in `work`."""
    nbrs = work[v]
    d = len(nbrs)
    linked = 0
    for u in nbrs:
        linked += len(work[u] & nbrs)
    return d * (d - 1) // 2 - linked // 2


def _eliminate(work: Graph, v: int) -> set[int]:
    """Remove v from `work`, join its neighbors into a clique, return them."""
    nbrs = work.pop(v)
    for u in nbrs:
        nu = work[u]
        nu.discard(v)
        nu.update(nbrs)
        nu.discard(u)
    return nbrs


def _unbucket(buckets: dict[int, list[int]], score: int, v: int) -> None:
    bucket = buckets[score]
    del bucket[bisect_left(bucket, v)]
    if not bucket:
        del buckets[score]


def _rescore(work: Graph, v: int, fill_v: int,
             score: dict[int, int]) -> dict[int, int]:
    """The fill scores that eliminating v from `work` changes, as a dict of
    new scores, from the fill edges F that v adds; `work` still holds v and
    `fill_v` is |F|. Reads `work` and `score` and changes neither."""
    nbrs = work[v]
    # N(v) minus N(u) minus u: the fill-edge partners of each u in N(v)
    partners = {u: nbrs - work[u] - {u} for u in nbrs} if fill_v else {}
    lost = {}  # vertex w -> F-edges with both ends adjacent to w
    for a, part in partners.items():
        for b in part:
            if a < b:
                for w in work[a] & work[b]:
                    lost[w] = lost.get(w, 0) + 1
    lost.pop(v, None)
    new = {w: score[w] - k for w, k in lost.items()}
    for u in nbrs:
        outside = work[u] - nbrs
        outside.discard(v)
        s = new.get(u, score[u]) - len(outside)
        for a in partners.get(u, ()):
            s += len(outside - work[a])
        new[u] = s
    return new


def min_fill_order(g: Graph, seed: int = 0,
                   budget: Budget = UNLIMITED) -> EliminationOrder:
    """Greedy min-fill ordering; ties broken uniformly with the given seed.

    `g` is a simple undirected graph: symmetric neighbor sets, no loops.
    Returns the order (first eliminated first) and the induced width measured
    while eliminating. Each step starts with `budget.check()`.

    Each step eliminates a vertex of least fill, the number of missing edges
    among its remaining neighbors. The candidates are all such vertices in
    ascending order, and `rng.choice` picks one only when there are several.
    Fill scores are counted by `_fill` once, at the start; after that each
    step changes them by deltas (Kjaerulff 1990). Eliminating v with
    neighbors N adds the fill edges F, the pairs of N not yet adjacent, so:

    * a vertex w outside N and v keeps its neighbors and loses one point for
      each edge of F whose two ends are both neighbors of w;
    * a vertex u in N loses v and gains A = N - N(u) - {u} as neighbors.
      With O = N(u) - N - {v}, its neighbors outside N, the new score is
      fill(u) - |O| - (F-edges inside N(u)) + sum over a in A of |O - N(a)|.

    One walk over the common neighbors of each edge of F counts both kinds
    of lost points. Vertices sit in buckets keyed by score, each bucket a
    sorted list, so the candidate list is the same sorted list a full rescan
    of every vertex would give, and so is every seeded order.
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
        fill_v = score.pop(v)
        _unbucket(buckets, fill_v, v)
        new = _rescore(work, v, fill_v, score)
        width = max(width, len(_eliminate(work, v)))
        for u, s in new.items():
            if s != score[u]:
                _unbucket(buckets, score[u], u)
                insort(buckets.setdefault(s, []), u)
                score[u] = s
        order.append(v)
    return EliminationOrder(order=tuple(order), induced_width=width)


def build_pseudo_tree(g: Graph, elim: EliminationOrder,
                      budget: Budget = UNLIMITED) -> PseudoTree:
    """Bucket tree and cache contexts from one elimination of `g` along
    `elim.order`, with `budget.check()` before each step, and then once
    per variable as it gets its parent and once as the DFS reaches it.

    When v is eliminated, its remaining neighbors N(v) are the vertices
    eliminated after it that share an induced-graph edge with it. v's parent
    is the member of N(v) eliminated earliest; the last-eliminated vertex is
    the root, and a vertex with an empty N(v) (the root of a disconnected
    component) hangs below the root, which keeps the result a single tree
    without introducing back-arc violations. Every member of N(v) is an
    ancestor of v, so v's context is N(v) in root-to-leaf order followed by
    v itself: exactly the ancestors of v adjacent in `g` to some vertex of
    v's subtree.
    """
    order = elim.order
    pos = elim.position
    if set(order) != set(g):
        raise ValueError("elimination order does not cover the graph")
    work = _copy_graph(g)
    later: dict[int, set[int]] = {}
    for v in order:
        budget.check()
        later[v] = _eliminate(work, v)
    root = order[-1]
    parent: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {v: [] for v in order}
    for v in order[:-1]:
        budget.check()
        p = parent[v] = min(later[v], key=pos.__getitem__) if later[v] else root
        children[p].append(v)
    # The DFS reaches each vertex after its ancestors, so their depths are
    # known when its context is sorted.
    depth = {root: 0}
    dfs = []
    contexts = {}
    stack = [root]
    while stack:
        budget.check()
        v = stack.pop()
        dfs.append(v)
        contexts[v] = tuple(sorted(later[v], key=depth.__getitem__)) + (v,)
        # Deterministic child order: reverse elimination (shallow contexts first).
        children[v].sort(key=lambda u: -pos[u])
        for c in reversed(children[v]):
            depth[c] = depth[v] + 1
            stack.append(c)
    height = max(depth.values())
    return PseudoTree(parent=parent, children=children, root=root, height=height,
                      depth=depth, dfs_order=tuple(dfs), contexts=contexts,
                      elim=elim)


def context_cache_bound(context: tuple[int, ...], domains: dict[int, int]) -> int:
    """Max distinct cache entries for one variable: product of context domains."""
    return math.prod(domains[u] for u in context)
