import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe.structure import context_cache_bound

from helpers import (TWO_VAR_UAI, is_ancestor, reference_min_fill_order,
                     reference_ring_min_fill_order, subtree,
                     validate_pseudo_tree)


def random_graph(seed, n=None, p=0.3):
    rng = random.Random(seed)
    n = n or rng.randint(2, 14)
    g = {v: set() for v in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g[i].add(j)
                g[j].add(i)
    return g


def chain_graph(n, seed):
    """Path graph over a random labelling of 0..n-1."""
    labels = list(range(n))
    random.Random(seed).shuffle(labels)
    g = {v: set() for v in labels}
    for a, b in zip(labels, labels[1:]):
        g[a].add(b)
        g[b].add(a)
    return g


def test_min_fill_chain_width_one():
    g = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    elim = am.min_fill_order(g)
    assert elim.induced_width == 1
    assert set(elim.order) == set(g)


def test_min_fill_clique_width():
    n = 5
    g = {v: set(range(n)) - {v} for v in range(n)}
    elim = am.min_fill_order(g)
    assert elim.induced_width == n - 1


def test_min_fill_deterministic_given_seed():
    g = random_graph(3)
    assert am.min_fill_order(g, seed=7) == am.min_fill_order(g, seed=7)


def test_min_fill_empty_graph_raises():
    with pytest.raises(ValueError):
        am.min_fill_order({})


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 14),
       p=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]),
       order_seed=st.integers(0, 5))
def test_min_fill_matches_reference_on_random_graphs(seed, n, p, order_seed):
    g = random_graph(seed, n, p)
    assert am.min_fill_order(g, order_seed) == reference_min_fill_order(g, order_seed)


def _structured_graphs():
    for seed in range(4):
        yield chain_graph(40 + 60 * seed, seed), f"chain{seed}"
        yield am.primal_graph(am.gen_random(30, 2, 27, 2, seed=seed)), f"random{seed}"
        yield am.primal_graph(am.gen_grid(6, 0.5, 0, seed=seed)[0]), f"grid{seed}"
        yield am.primal_graph(am.gen_coding(12, 4, 0.3, seed=seed)[0]), f"coding{seed}"
    n = 30
    yield {0: set(range(1, n)), **{v: {0} for v in range(1, n)}}, "star"
    yield {v: set(range(n)) - {v} for v in range(n)}, "clique"
    # two triangles, a path and isolated vertices, labels interleaved
    g = {v: set() for v in range(20)}
    for a, b in ((0, 7), (7, 13), (0, 13), (2, 9), (9, 16), (2, 16),
                 (4, 11), (11, 18)):
        g[a].add(b)
        g[b].add(a)
    yield g, "disconnected"


@pytest.mark.parametrize("g", [pytest.param(g, id=name)
                               for g, name in _structured_graphs()])
def test_min_fill_matches_reference_on_structured_graphs(g):
    for seed in (0, 1, 101):
        assert am.min_fill_order(g, seed) == reference_min_fill_order(g, seed), seed


def _pool_graph(family, seed):
    """The evidence-reduced primal graph of one benchmark-sized net."""
    if family == "grid":
        net, evidence = am.gen_grid(10, 0.5, 5, seed=seed)
    elif family == "coding":
        net, evidence = am.gen_coding(30, 4, 0.3, seed=seed)[0], {}
    else:
        net, evidence = am.gen_random(60, 2, 54, 2, seed=seed), {}
    return am.primal_graph(am.apply_evidence(net, evidence))


@settings(max_examples=60, deadline=None)
@given(graph=st.one_of(
           st.builds(random_graph, st.integers(0, 10_000), st.integers(1, 60),
                     st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])),
           st.builds(_pool_graph, st.sampled_from(["grid", "coding", "random"]),
                     st.integers(0, 10_000))),
       order_seed=st.integers(0, 5))
def test_min_fill_matches_ring_reference_on_large_graphs(graph, order_seed):
    """Graphs too large for the full rescan of `reference_min_fill_order`."""
    elim = am.min_fill_order(graph, order_seed)
    ref = reference_ring_min_fill_order(graph, order_seed)
    assert elim.order == ref.order
    assert elim.induced_width == ref.induced_width


@pytest.mark.parametrize("g", [
    pytest.param(_pool_graph("grid", 3), id="grid10"),
    pytest.param(_pool_graph("coding", 3), id="coding30"),
    pytest.param(chain_graph(2000, 3), id="chain2000"),
])
def test_min_fill_counts_each_fill_once(g, monkeypatch):
    """`_fill` scores each vertex once, at the start; every later score
    comes from a delta."""
    calls = 0
    fill = am.structure._fill

    def counted(work, v):
        nonlocal calls
        calls += 1
        return fill(work, v)

    monkeypatch.setattr(am.structure, "_fill", counted)
    am.min_fill_order(g, seed=1)
    assert calls == len(g)

def test_decompose_matches_reference_order(monkeypatch):
    nets = [am.gen_random(30, 2, 27, 2, seed=3), am.gen_grid(6, 0.5, 0, seed=1)[0],
            am.gen_coding(12, 4, 0.3, seed=2)[0]]
    for net in nets:
        for seed in (0, 101):
            tree = am.decompose(net, seed)
            with monkeypatch.context() as m:
                m.setattr(am.structure, "min_fill_order", reference_min_fill_order)
                ref = am.decompose(net, seed)
            assert tree.elim == ref.elim
            assert tree.parent == ref.parent
            assert tree.contexts == ref.contexts


def test_min_fill_orders_a_deep_chain_quickly():
    # A full rescan of every vertex per step would take minutes here.
    n = 20_000
    g = chain_graph(n, 7)
    t0 = time.perf_counter()
    elim = am.min_fill_order(g, seed=7)
    assert time.perf_counter() - t0 < 10.0
    assert elim.induced_width == 1
    assert sorted(elim.order) == list(range(n))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 5))
def test_min_fill_is_permutation_and_width_consistent(seed, order_seed):
    g = random_graph(seed)
    elim = am.min_fill_order(g, seed=order_seed)
    assert sorted(elim.order) == sorted(g)
    # induced width is the size of the largest context, less the variable
    tree = am.build_pseudo_tree(g, elim)
    assert elim.induced_width == max(len(c) for c in tree.contexts.values()) - 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 5))
def test_pseudo_tree_back_arc_property(seed, order_seed):
    g = random_graph(seed)
    elim = am.min_fill_order(g, seed=order_seed)
    tree = am.build_pseudo_tree(g, elim)
    assert validate_pseudo_tree(tree, g)
    assert tree.root == elim.order[-1]
    # parent is eliminated after the child
    pos = elim.position
    for v, p in tree.parent.items():
        if p is not None:
            assert pos[p] > pos[v]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pseudo_tree_depth_and_preorder(seed):
    g = random_graph(seed)
    elim = am.min_fill_order(g)
    tree = am.build_pseudo_tree(g, elim)
    assert tree.depth[tree.root] == 0
    assert tree.height == max(tree.depth.values())
    assert tree.dfs_order[0] == tree.root
    assert sorted(tree.dfs_order) == sorted(g)
    for v, p in tree.parent.items():
        if p is not None:
            assert tree.depth[v] == tree.depth[p] + 1
            assert tree.preorder_index(p) < tree.preorder_index(v)


def test_validate_pseudo_tree_rejects_cross_edges():
    g = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
    bad = am.PseudoTree(parent={0: None, 1: 0, 2: 0},
                        children={0: [1, 2], 1: [], 2: []},
                        root=0, height=1, depth={0: 0, 1: 1, 2: 1},
                        dfs_order=(0, 1, 2),
                        contexts={0: (0,), 1: (0, 1), 2: (0, 2)})
    # edge 1-2 joins two siblings: invalid
    assert not validate_pseudo_tree(bad, g)


def test_disconnected_components_form_single_tree():
    g = {0: {1}, 1: {0}, 2: {3}, 3: {2}, 4: set()}
    elim = am.min_fill_order(g)
    tree = am.build_pseudo_tree(g, elim)
    assert validate_pseudo_tree(tree, g)
    roots = [v for v, p in tree.parent.items() if p is None]
    assert roots == [tree.root]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_context_size_bounded_by_width_plus_one(seed):
    g = random_graph(seed)
    elim = am.min_fill_order(g)
    tree = am.build_pseudo_tree(g, elim)
    for v, c in tree.contexts.items():
        assert len(c) <= elim.induced_width + 1
        assert c[-1] == v
        # ancestors appear root-to-leaf
        depths = [tree.depth[u] for u in c[:-1]]
        assert depths == sorted(depths)
        assert all(is_ancestor(tree, u, v) for u in c[:-1])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 14),
       p=st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.5, 0.8]),
       shuffled=st.booleans())
def test_contexts_are_ancestors_adjacent_to_the_subtree(seed, n, p, shuffled):
    """The AND/OR definition of a context, which does not depend on the
    elimination: the ancestors of v adjacent in g to some vertex of v's
    subtree, root-to-leaf, then v. Low p gives disconnected graphs and
    isolated vertices."""
    g = random_graph(seed, n, p)
    if shuffled:
        order = list(g)
        random.Random(seed).shuffle(order)
        # n - 1 bounds the width; build_pseudo_tree reads only the order
        elim = am.EliminationOrder(order=tuple(order), induced_width=n - 1)
    else:
        elim = am.min_fill_order(g, seed=seed)
    tree = am.build_pseudo_tree(g, elim)
    assert validate_pseudo_tree(tree, g)
    for v in g:
        below = set(subtree(tree, v))
        path = []
        u = tree.parent[v]
        while u is not None:
            path.append(u)
            u = tree.parent[u]
        expected = [a for a in reversed(path) if g[a] & below] + [v]
        assert tree.contexts[v] == tuple(expected)


def test_context_root_is_singleton():
    net = am.parse_uai(TWO_VAR_UAI)
    g = am.primal_graph(net)
    elim = am.min_fill_order(g)
    tree = am.build_pseudo_tree(g, elim)
    assert tree.contexts[tree.root] == (tree.root,)


def test_chain_contexts_are_parent_child_pairs():
    g = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    elim = am.EliminationOrder(order=(0, 1, 2, 3), induced_width=1)
    tree = am.build_pseudo_tree(g, elim)
    ctx = tree.contexts
    assert ctx[3] == (3,)
    assert ctx[2] == (3, 2)
    assert ctx[1] == (2, 1)
    assert ctx[0] == (1, 0)


def test_context_cache_bound_products():
    domains = {0: 2, 1: 3, 2: 4}
    assert context_cache_bound((0,), domains) == 2
    assert context_cache_bound((0, 1, 2), domains) == 24
    assert context_cache_bound((), domains) == 1


def test_subtree_and_ancestors():
    g = {0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    elim = am.EliminationOrder(order=(0, 1, 2, 3), induced_width=1)
    tree = am.build_pseudo_tree(g, elim)
    assert tree.root == 3
    assert set(subtree(tree, 2)) == {0, 1, 2}
    assert subtree(tree, 2)[0] == 2
    assert [tree.parent[v] for v in (0, 1, 2, 3)] == [1, 2, 3, None]
    assert is_ancestor(tree, 3, 0) and not is_ancestor(tree, 0, 3)
