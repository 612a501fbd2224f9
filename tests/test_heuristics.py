import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe.factor_ops import FlatTable, log_factors
from andor_mpe.heuristics import MiniBucketTables, mini_bucket_schedule
from andor_mpe.search import SearchProblem

from helpers import (close, exact_subproblem_values, random_chain,
                     reference_dmb, reference_mini_bucket_pass)


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
    # A step's union is its mini-bucket's joint scope: at most i variables,
    # unless one input is wider than i.
    checked = 0
    for seed in range(40):
        net = am.gen_random(14, 2, 12, 2, seed=seed)
        scopes = [f.scope for f in net.factors]
        widest = max(len(scope) for scope in scopes)
        elim = am.decompose(net).elim
        pos = elim.position
        for i in range(1, 6):
            _, steps = mini_bucket_schedule(scopes, elim.order, pos, i, None)
            for v, _, union, dest in steps:
                assert len(union) <= max(i, widest)
                assert dest is None or pos[dest] > pos[v]
            checked += len(steps)
    assert checked > 1000


def test_mini_bucket_rejects_bad_ibound():
    with pytest.raises(ValueError):
        mini_bucket_schedule([], [0], {0: 0}, 0, None)
    net = small_net(0)
    with pytest.raises(ValueError):
        am.compile_smb(log_factors(net.factors), am.decompose(net), 0)


def test_mini_bucket_single_bucket_is_exact_elimination():
    net = am.parse_uai(
        "BAYES\n1\n3\n1\n1 0\n\n3\n0.2 0.5 0.3\n")
    functions = log_factors(net.factors)
    _, steps = mini_bucket_schedule([f.scope for f in functions], [0],
                                    {0: 0}, 1, None)
    assert all(dest is None for *_, dest in steps)
    tables = am.compile_smb(functions, am.decompose(net), 1)
    assert close(tables.root_bound, math.log(0.5))


def test_memory_budget_raises():
    net = am.gen_random(12, 2, 10, 2, seed=3)
    tree = am.decompose(net)
    with pytest.raises(am.LimitExceeded, match="memout"):
        am.compile_smb(log_factors(net.factors), tree, 6,
                       budget=am.Budget(max_entries=2))


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


@st.composite
def dmb_cases(draw):
    """A reduced network of one of four families and an i-bound of 1-4:
    random nets of domain 2 or 3, grids with deterministic CPTs and
    evidence (so log tables hold -inf), coding nets and chains."""
    family = draw(st.sampled_from(["random", "grid", "coding", "chain"]))
    seed = draw(st.integers(0, 10_000))
    if family == "random":
        n = draw(st.integers(4, 16))
        net = am.gen_random(n, draw(st.integers(2, 3)), n - 2, 2, seed=seed)
    elif family == "grid":
        side = draw(st.integers(2, 5))
        net, evidence = am.gen_grid(side, 0.5, draw(st.integers(1, side)),
                                    seed=seed)
        net = am.apply_evidence(net, evidence)
    elif family == "coding":
        net, _ = am.gen_coding(draw(st.integers(3, 6)), draw(st.integers(2, 3)),
                               0.5, seed=seed)
    else:
        net = random_chain(draw(st.integers(2, 60)), seed=seed)
    return net, draw(st.integers(1, 4))


class Recorder:
    """An evaluator that records every `h_or` call, before it is answered,
    and then its answer's repr."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def h_or(self, var, asg):
        self.calls.append((var, tuple(asg)))
        h = self.inner.h_or(var, asg)
        self.calls.append(repr(h))
        return h


def record_searches(evaluator_cls, net, tree, ibound, max_entries):
    """Every `h_or` of an AOBF and an AOBB run with a fresh evaluator each,
    under a budget of `max_entries` table entries, then how the run ended:
    its status, mpe_log and expansions."""
    factors = log_factors(net.factors)
    out = []
    for search in (am.aobf, am.aobb):
        recorder = Recorder(evaluator_cls(
            factors, tree, ibound, budget=am.Budget(max_entries=max_entries)))
        res = search(SearchProblem(net, tree, recorder, factors))
        out.append(recorder.calls
                   + [(res.status, repr(res.mpe_log), res.stats.expansions)])
    return out


@settings(max_examples=150, deadline=None)
@given(case=dmb_cases(), budget=st.sampled_from([None, None, 4, 16, 64]))
def test_compiled_dmb_replays_the_reference_sweep(case, budget):
    """Every `h_or` made during AOBF and AOBB is bit-identical to the full
    sweep of the reference, and a table budget runs out at the same call."""
    net, ibound = case
    tree = am.decompose(net)
    new = record_searches(am.DmbEvaluator, net, tree, ibound, budget)
    assert new == record_searches(reference_dmb, net, tree, ibound, budget)


def _smb_tables(net, tree, ibound, budget, sweep):
    """The root bound, each node's exiting tables as (scope, entries) and
    the entry count of `sweep`'s SMB tables, or the status of the
    LimitExceeded that stopped it under a budget of `budget` entries."""
    try:
        tables = sweep(log_factors(net.factors), tree, ibound,
                       am.Budget(max_entries=budget))
    except am.LimitExceeded as e:
        return e.status
    exiting = {v: [(fn.scope, fn.flat) for fn in fns]
               for v, fns in tables.exiting.items()}
    return repr(tables.root_bound), exiting, tables.table_entries


def _reference_smb(factors, tree, ibound, budget):
    """SMB tables assembled from `reference_mini_bucket_pass` records."""
    elim = tree.elim
    constant, records = reference_mini_bucket_pass(
        factors, list(elim.order), elim.position, ibound, budget)
    exiting = {v: [] for v in elim.order}
    for rec in records:
        cur = rec.origin
        while cur is not None and cur != rec.dest:
            exiting[cur].append(FlatTable(rec.factor))
            cur = tree.parent[cur]
    entries = sum(rec.factor.table.size for rec in records)
    return MiniBucketTables(constant, exiting, entries)


@settings(max_examples=60, deadline=None)
@given(case=dmb_cases(), budget=st.sampled_from([None, None, 4, 16, 64]))
def test_compile_smb_matches_the_reference_pass(case, budget):
    """`compile_smb` builds bit-identical tables to those assembled from
    the reference sweep's messages, and a table budget runs out alike."""
    net, ibound = case
    tree = am.decompose(net)
    assert (_smb_tables(net, tree, ibound, budget, am.compile_smb)
            == _smb_tables(net, tree, ibound, budget, _reference_smb))
