import math
import random
import sys
import time
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

import andor_mpe as am
from andor_mpe.search import _AndNode, _OrNode, _tip_key

from helpers import (TWO_VAR_UAI, close, exact_subproblem_values,
                     random_chain, reference_aobb, reference_aobf)


def test_aobf_hand_checked_two_vars():
    net = am.parse_uai(TWO_VAR_UAI)
    problem = am.build_problem(net, am.decompose(net), 2)
    res = am.aobf(problem)
    assert res.status == "solved"
    assert close(res.mpe_log, math.log(0.54))
    assert res.assignment == {0: 1, 1: 1}
    assert close(res.marked_weight_sum, res.mpe_log)


def test_aobb_hand_checked_two_vars():
    net = am.parse_uai(TWO_VAR_UAI)
    problem = am.build_problem(net, am.decompose(net), 2)
    res = am.aobb(problem)
    assert res.status == "solved"
    assert close(res.mpe_log, math.log(0.54))
    assert res.assignment == {0: 1, 1: 1}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000), ibound=st.integers(1, 6))
def test_solvers_match_enumeration_random(seed, ibound):
    import random
    rng = random.Random(seed)
    n = rng.randint(4, 11)
    net = am.gen_random(n, 2, n - 2, 2, seed=seed)
    exact = am.enumerate_mpe(net).mpe_log
    problem = am.build_problem(net, am.decompose(net), ibound)
    for res in (am.aobf(problem), am.aobb(problem)):
        assert res.status == "solved"
        assert close(res.mpe_log, exact)
        assert close(am.log_probability(net, res.assignment), exact)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000), ibound=st.sampled_from([1, 2, 4]))
def test_solvers_match_enumeration_deterministic_grid(seed, ibound):
    net, evidence = am.gen_grid(3, 0.9, 2, seed=seed)
    red = am.apply_evidence(net, evidence)
    if not red.variables:
        return
    exact = am.enumerate_mpe(red).mpe_log
    problem = am.build_problem(red, am.decompose(red), ibound)
    for res in (am.aobf(problem), am.aobb(problem)):
        assert res.status == "solved"
        assert close(res.mpe_log, exact)
        if exact != -math.inf:
            assert close(am.log_probability(red, res.assignment), exact)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_solvers_match_enumeration_with_dmb(seed):
    net = am.gen_random(7, 2, 5, 2, seed=seed)
    exact = am.enumerate_mpe(net).mpe_log
    problem = am.build_problem(net, am.decompose(net), 2, heuristic="dmb")
    for res in (am.aobf(problem), am.aobb(problem)):
        assert res.status == "solved"
        assert close(res.mpe_log, exact)


def test_coding_network_decodes_at_low_noise():
    net, truth = am.gen_coding(6, 3, 1e-4, seed=9)
    problem = am.build_problem(net, am.decompose(net), 4)
    res = am.aobf(problem)
    assert res.status == "solved"
    assert res.assignment == truth


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_arc_weights_telescope_to_log_probability(seed):
    import random
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    net = am.gen_random(n, 2, n - 2, 2, seed=seed)
    tree = am.decompose(net)
    problem = am.build_problem(net, tree, 1)
    x = {v: rng.randrange(2) for v in net.variables}
    total = 0.0
    for v in tree.dfs_order:  # only the path to v is assigned
        path = {}
        u = v
        while u is not None:  # v and its ancestors
            path[u] = x[u]
            u = tree.parent[u]
        total += problem.weight(v, path)
    assert close(total, am.log_probability(net, x))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000), ibound=st.integers(1, 3))
def test_aobf_revised_values_never_increase(seed, ibound):
    """With a monotone heuristic, value revisions only tighten downward."""
    net = am.gen_random(7, 2, 5, 2, seed=seed)
    problem = am.build_problem(net, am.decompose(net), ibound)
    violations = []

    def on_revise(node, old_v, new_v):
        if new_v > old_v + 1e-9:
            violations.append((node.var, old_v, new_v))

    res = am.aobf(problem, on_revise=on_revise)
    assert res.status == "solved"
    assert not violations


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_aobf_root_value_equals_exact_subproblem_oracle(seed):
    net = am.gen_random(6, 2, 4, 2, seed=seed)
    problem = am.build_problem(net, am.decompose(net), 2)
    root_v, _, _ = exact_subproblem_values(problem)
    res = am.aobf(problem)
    assert close(res.mpe_log, root_v)


def _record_h_or(problem):
    """Wrap the evaluator's `h_or` in a recorder; returns the list of keys
    (child, values of its parent's context) it is called with."""
    tree, ev = problem.tree, problem.evaluator
    h_or, keys = ev.h_or, []

    def recorder(var, asg):
        parent = tree.parent[var]
        ctx = () if parent is None else problem.contexts[parent]
        keys.append((var, tuple(asg[u] for u in ctx)))
        return h_or(var, asg)

    ev.h_or = recorder
    return keys


def test_aobf_asks_each_child_bound_once_per_and_node():
    for heuristic in ("smb", "dmb"):
        for seed in range(40):
            net = am.gen_random(12, 2, 9, 2, seed=seed)
            problem = am.build_problem(net, am.decompose(net), 2,
                                       heuristic=heuristic)
            keys = _record_h_or(problem)
            assert am.aobf(problem).status == "solved"
            assert len(set(keys)) == len(keys), (heuristic, seed)
    net = am.gen_random(12, 2, 9, 2, seed=0)
    tree = am.decompose(net)
    calls = {}
    for heuristic in ("smb", "dmb"):
        for search in (am.aobf, am.aobb):
            problem = am.build_problem(net, tree, 2, heuristic=heuristic)
            keys = _record_h_or(problem)
            search(problem)
            calls[heuristic, search.__name__] = len(keys)
    assert calls == {("smb", "aobf"): 49, ("smb", "aobb"): 69,
                     ("dmb", "aobf"): 33, ("dmb", "aobb"): 42}


def test_expansion_counts_on_the_seed_501_net():
    # The ROADMAP Baseline instance: w* = 16, height 24.
    net = am.gen_random(100, 2, 90, 2, seed=501)
    problem = am.build_problem(net, am.decompose(net, seed=0), 6)
    bf, bb = am.aobf(problem), am.aobb(problem)
    assert (bf.stats.expansions, bb.stats.expansions) == (19_229, 25_211)
    assert bf.mpe_log == bb.mpe_log == -31.225179086448684


def test_select_tip_prefers_deepest_then_preorder():
    # AOBF expands the tip with the smallest `_tip_key`.
    preorder = {0: 0, 1: 1, 2: 2}
    a = _OrNode(1, 3, 0.0, None)
    b = _OrNode(2, 3, 0.0, None)
    c = _OrNode(0, 2, 0.0, None)

    def first(tips):
        return min(tips, key=lambda nd: _tip_key(nd, preorder))

    assert first([c, b, a]) is a  # deepest, smaller preorder
    assert first([c, b]) is b  # deeper beats a smaller preorder
    assert first([b, a]) is a  # same depth: smaller preorder


def _aobf_run(search, problem):
    """Everything `search` reports, and the full `on_revise` sequence."""
    revisions = []

    def on_revise(node, old_v, new_v):
        revisions.append((node.var, isinstance(node, _AndNode), node.depth,
                          old_v, new_v))

    res = search(problem, on_revise=on_revise)
    return (res.status, repr(res.mpe_log), res.assignment, res.stats.expansions,
            res.stats.cache_hits, res.stats.cache_entries, revisions)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), ibound=st.integers(1, 3),
       family=st.sampled_from(["random", "grid", "chain"]),
       heuristic=st.sampled_from(["smb", "dmb"]))
def test_aobf_matches_full_retrace_reference(seed, ibound, family, heuristic):
    """Keeping the tips between expansions changes no choice AOBF makes."""
    rng = random.Random(seed)
    if family == "random":
        n = rng.randint(10, 20)
        net = am.gen_random(n, 2, n - 2, 2, seed=seed)
    elif family == "grid":
        net, evidence = am.gen_grid(5, 0.5, 3, seed=seed)
        net = am.apply_evidence(net, evidence)
    else:
        net = random_chain(rng.randint(2, 40), seed=seed)
    problem = am.build_problem(net, am.decompose(net, seed=seed), ibound,
                               heuristic=heuristic)
    assert _aobf_run(am.aobf, problem) == _aobf_run(reference_aobf, problem)


def _aobb_run(search, problem, budget=am.Budget()):
    """Everything `search` reports."""
    res = search(problem, budget)
    return (res.status, repr(res.mpe_log), res.assignment, res.stats.expansions,
            res.stats.cache_hits, res.stats.cache_entries)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), ibound=st.integers(1, 3),
       family=st.sampled_from(["random", "grid", "chain"]),
       heuristic=st.sampled_from(["smb", "dmb"]),
       max_nodes=st.integers(0, 50))
def test_aobb_matches_subtree_copy_reference(seed, ibound, family, heuristic,
                                             max_nodes):
    """Reading the solution off the cache changes nothing AOBB reports, and
    a node limit ends it at the same point with the same incumbent."""
    rng = random.Random(seed)
    if family == "random":
        n = rng.randint(10, 40)
        net = am.gen_random(n, 2, n - 2, 2, seed=seed)
    elif family == "grid":
        net, evidence = am.gen_grid(rng.randint(3, 5), 0.5, 3, seed=seed)
        net = am.apply_evidence(net, evidence)
    else:
        net = random_chain(rng.randint(2, 120), seed=seed)
    problem = am.build_problem(net, am.decompose(net, seed=seed), ibound,
                               heuristic=heuristic)
    assert _aobb_run(am.aobb, problem) == _aobb_run(reference_aobb, problem)
    budget = am.Budget(max_nodes=max_nodes)
    assert (_aobb_run(am.aobb, problem, budget)
            == _aobb_run(reference_aobb, problem, budget))


def _traced_peak(search, problem):
    tracemalloc.start()
    try:
        assert search(problem).status == "solved"
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_aobb_memory_is_linear_on_a_deep_chain():
    # Pseudo-tree height about 500. A copy of each subtree's assignment per
    # cache entry makes AOBB's memory quadratic in the chain length, about
    # eight times AOBF's here; the choices alone keep it linear.
    net = random_chain(1000, seed=3)
    problem = am.build_problem(net, am.decompose(net), 2)
    bb, bf = _traced_peak(am.aobb, problem), _traced_peak(am.aobf, problem)
    assert bb <= 2 * bf, (bb, bf)


def test_aobf_solves_a_deep_chain_in_linear_time():
    # Pseudo-tree height about 5,000. Tracing the whole marked tree on every
    # expansion makes the search quadratic in the chain length (tens of
    # seconds for this chain); keeping the tips keeps it linear.
    net = random_chain(10_000, seed=3)
    tree = am.decompose(net)
    problem = am.build_problem(net, tree, 2)
    t0 = time.perf_counter()
    res = am.aobf(problem)
    elapsed = time.perf_counter() - t0
    assert res.status == "solved"
    assert res.stats.expansions == 19_998
    assert close(res.mpe_log, am.bucket_elimination_mpe(net, tree.elim).mpe_log)
    assert elapsed < 10.0, elapsed


def test_empty_problem_is_trivially_solved():
    net = am.BeliefNetwork(variables=[], domains={}, factors=[])
    tree = am.PseudoTree(parent={}, children={}, root=-1, height=0,
                         depth={}, dfs_order=(), contexts={})

    class _Zero:
        def h_or(self, var, asg):
            return 0.0

    problem = am.SearchProblem(net, tree, _Zero(), [])
    for res in (am.aobf(problem), am.aobb(problem)):
        assert res.status == "solved"
        assert res.mpe_log == 0.0 and res.assignment == {}


def test_time_limit_zero_times_out():
    net = am.gen_random(10, 2, 8, 2, seed=1)
    problem = am.build_problem(net, am.decompose(net), 1)
    budget = am.Budget(time_limit=0.0)
    assert am.aobf(problem, budget).status == "timeout"
    assert am.aobb(problem, budget).status == "timeout"


def test_aobb_restores_recursion_limit():
    net = am.gen_random(10, 2, 8, 2, seed=1)
    problem = am.build_problem(net, am.decompose(net), 1)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert am.aobb(problem).status == "solved"
        assert sys.getrecursionlimit() == 1000
        assert am.aobb(problem, am.Budget(time_limit=0)).status == "timeout"
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_node_limit_memouts():
    net = am.gen_random(40, 2, 36, 2, seed=1)
    problem = am.build_problem(net, am.decompose(net), 1)
    for search in (am.aobf, am.aobb):
        res = search(problem, am.Budget(max_nodes=5))
        assert res.status == "memout"
        assert res.assignment is None


def test_node_limit_holds_the_same_for_both_searches():
    """Neither search ends `solved` holding more nodes than the cap: each
    checks it where it adds nodes, AOBB at every cache entry it stores."""
    for seed in range(100):
        n = 10 + seed % 11
        net = am.gen_random(n, 2, n - 2, 2, seed=seed)
        problem = am.build_problem(net, am.decompose(net), 2)
        for search in (am.aobf, am.aobb):
            res = search(problem, am.Budget(max_nodes=5))
            assert res.status == "memout" or res.stats.cache_entries <= 5, \
                (seed, search.__name__, res.stats.cache_entries)


def test_aobb_incumbent_reported_on_timeout():
    # a generous-but-finite budget: whatever the status, the incumbent value
    # must be attainable or -inf
    net = am.gen_random(20, 2, 16, 2, seed=4)
    problem = am.build_problem(net, am.decompose(net), 2)
    res = am.aobb(problem, am.Budget(time_limit=1e-3))
    assert res.status in ("solved", "timeout")
    if res.status == "timeout" and res.mpe_log != -math.inf:
        exact = am.aobb(problem).mpe_log
        assert res.mpe_log <= exact + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cache_entries_respect_context_bound(seed):
    from andor_mpe.structure import context_cache_bound
    net = am.gen_random(12, 2, 10, 2, seed=seed)
    problem = am.build_problem(net, am.decompose(net), 2)
    ctx = problem.contexts
    for res in (am.aobf(problem), am.aobb(problem)):
        total_bound = sum(context_cache_bound(ctx[v], net.domains)
                          for v in net.variables)
        assert res.stats.cache_entries <= total_bound


def test_zero_probability_network_yields_neg_inf():
    # an impossible observation: P(A) puts all mass on 0, the likelihood on 1
    factors = [
        am.Factor(scope=(0,), table=np.array([1.0, 0.0]), child=0),
        am.Factor(scope=(0,), table=np.array([0.0, 1.0]), child=None),
        am.Factor(scope=(1,), table=np.array([0.5, 0.5]), child=1),
    ]
    net = am.BeliefNetwork(variables=[0, 1], domains={0: 2, 1: 2},
                           factors=factors)
    exact = am.enumerate_mpe(net).mpe_log
    assert exact == -math.inf
    problem = am.build_problem(net, am.decompose(net), 2)
    for res in (am.aobf(problem), am.aobb(problem)):
        assert res.status == "solved"
        assert res.mpe_log == -math.inf
        assert set(res.assignment) == {0, 1}

