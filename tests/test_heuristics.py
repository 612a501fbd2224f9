import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe.factor_ops import log_factors
from andor_mpe.heuristics import MemoryBudgetExceeded, mini_bucket_pass

from helpers import close, exact_subproblem_values


def small_net(seed, n_lo=4, n_hi=9, d=2):
    import random
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    return am.gen_random(n, d, n - 2, 2, seed=seed)


def walk_nodes(problem):
    """Yield (kind, var, value-or-None, ancestor assignment dict) for every
    node of the AND/OR search tree of a (small) problem."""
    tree = problem.tree
    out = []

    def rec(X, asg):
        out.append(("or", X, None, dict(asg)))
        for x in range(problem.domains[X]):
            asg[X] = x
            out.append(("and", X, x, dict(asg)))
            for c in tree.children[X]:
                rec(c, asg)
            del asg[X]

    rec(tree.root, {})
    return out


def test_mini_bucket_messages_respect_ibound():
    # A message's scope plus its eliminated variable is its mini-bucket's
    # joint scope: at most i variables, unless one input is wider than i.
    checked = 0
    for seed in range(40):
        net = am.gen_random(14, 2, 12, 2, seed=seed)
        functions = log_factors(net.factors)
        widest = max(len(f.scope) for f in functions)
        elim = am.decompose(net).elim
        pos = elim.position
        for i in range(1, 6):
            _, records = mini_bucket_pass(functions, list(elim.order), pos, i)
            for r in records:
                assert len(r.factor.scope) + 1 <= max(i, widest)
                assert r.dest is None or pos[r.dest] > pos[r.origin]
            checked += len(records)
    assert checked > 1000


def test_mini_bucket_rejects_bad_ibound():
    with pytest.raises(ValueError):
        mini_bucket_pass([], [0], {0: 0}, 0)


def test_mini_bucket_single_bucket_is_exact_elimination():
    net = am.parse_uai(
        "BAYES\n1\n3\n1\n1 0\n\n3\n0.2 0.5 0.3\n")
    functions = log_factors(net.factors)
    constant, records = mini_bucket_pass(functions, [0], {0: 0}, 1)
    assert close(constant, math.log(0.5))
    assert all(r.dest is None for r in records)


def test_memory_budget_raises():
    net = am.gen_random(12, 2, 10, 2, seed=3)
    tree = am.decompose(net)
    with pytest.raises(MemoryBudgetExceeded):
        am.compile_smb(log_factors(net.factors), tree, 6, max_table_entries=2)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), ibound=st.integers(1, 4))
def test_root_bound_is_admissible(seed, ibound):
    net = small_net(seed)
    exact = am.enumerate_mpe(net).mpe_log
    tree = am.decompose(net)
    tables = am.compile_smb(log_factors(net.factors), tree, ibound)
    assert tables.root_bound >= exact - 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_root_bound_exact_at_full_ibound(seed):
    net = small_net(seed)
    exact = am.enumerate_mpe(net).mpe_log
    tree = am.decompose(net)
    tables = am.compile_smb(log_factors(net.factors), tree, tree.elim.induced_width + 1)
    assert close(tables.root_bound, exact)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), ibound=st.integers(1, 3))
def test_smb_admissible_at_every_node(seed, ibound):
    net = small_net(seed, n_lo=4, n_hi=7)
    problem = am.build_problem(net, am.decompose(net), ibound)
    _, or_value, and_value = exact_subproblem_values(problem)
    ev = problem.evaluator
    for kind, X, x, asg in walk_nodes(problem):
        if kind == "or":
            assert ev.h_or(X, asg) >= or_value(X, asg) - 1e-9
        else:
            _, h_and = problem.child_bounds(X, asg)
            assert h_and >= and_value(X, asg) - 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), ibound=st.integers(1, 3))
def test_smb_is_monotone(seed, ibound):
    """h(OR) >= w + h(AND) for each value, h(AND) being the sum of the
    children's h(OR)."""
    net = small_net(seed, n_lo=4, n_hi=7)
    problem = am.build_problem(net, am.decompose(net), ibound)
    ev = problem.evaluator
    for kind, X, x, asg in walk_nodes(problem):
        if kind != "or":
            continue
        h_or = ev.h_or(X, asg)
        best = -math.inf
        for v in range(problem.domains[X]):
            asg[X] = v
            _, h_and = problem.child_bounds(X, asg)
            best = max(best, problem.weight(X, asg) + h_and)
            del asg[X]
        assert h_or >= best - 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dmb_never_looser_than_smb(seed):
    net = small_net(seed, n_lo=4, n_hi=7)
    tree = am.decompose(net)
    smb_problem = am.build_problem(net, tree, 2, heuristic="smb")
    dmb_problem = am.build_problem(net, tree, 2, heuristic="dmb")
    s_ev, d_ev = smb_problem.evaluator, dmb_problem.evaluator
    for kind, X, x, asg in walk_nodes(smb_problem):
        if kind != "or":
            continue
        assert d_ev.h_or(X, asg) <= s_ev.h_or(X, asg) + 1e-9


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), ibound=st.integers(1, 4))
def test_dmb_at_root_equals_smb_root_bound(seed, ibound):
    net = small_net(seed)
    tree = am.decompose(net)
    tables = am.compile_smb(log_factors(net.factors), tree, ibound)
    dmb_root = am.DmbEvaluator(log_factors(net.factors), tree, ibound).h_or(tree.root, {})
    assert dmb_root == tables.root_bound  # same sweep, bit-identical


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dmb_exact_at_full_ibound(seed):
    net = small_net(seed, n_lo=4, n_hi=7)
    problem = am.build_problem(net, am.decompose(net), 20, heuristic="dmb")
    _, or_value, _ = exact_subproblem_values(problem)
    ev = problem.evaluator
    for kind, X, x, asg in walk_nodes(problem):
        if kind != "or":
            continue
        assert close(ev.h_or(X, asg), or_value(X, asg))
