import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe import limits

from helpers import TWO_VAR_UAI, close, random_chain


def test_enumeration_hand_checked_two_vars():
    net = am.parse_uai(TWO_VAR_UAI)
    res = am.enumerate_mpe(net)
    assert close(res.mpe_log, math.log(0.54))
    assert res.assignment == {0: 1, 1: 1}


def test_enumeration_ties_pick_lexicographic_smallest():
    net = am.parse_uai("BAYES\n2\n2 2\n2\n1 0\n1 1\n\n2\n0.5 0.5\n\n2\n0.5 0.5\n")
    res = am.enumerate_mpe(net)
    assert res.assignment == {0: 0, 1: 0}


def test_enumeration_cap():
    net = am.gen_random(25, 2, 0, 1, seed=0)
    with pytest.raises(ValueError, match="enumeration cap"):
        am.enumerate_mpe(net, cap=1 << 10)


def test_enumeration_cap_on_a_joint_too_large_to_print():
    # 2**15000 has more decimal digits than Python converts by default
    n = 15_000
    net = am.BeliefNetwork(variables=list(range(n)), domains=dict.fromkeys(range(n), 2),
                           factors=[])
    with pytest.raises(ValueError, match="exceeds the enumeration cap"):
        am.enumerate_mpe(net)


def test_enumeration_empty_network():
    net = am.BeliefNetwork(variables=[], domains={}, factors=[])
    res = am.enumerate_mpe(net)
    assert res.mpe_log == 0.0 and res.assignment == {}


def test_bucket_elimination_hand_checked():
    net = am.parse_uai(TWO_VAR_UAI)
    elim = am.min_fill_order(am.primal_graph(net))
    res = am.bucket_elimination_mpe(net, elim)
    assert close(res.mpe_log, math.log(0.54))
    assert res.assignment == {0: 1, 1: 1}


def test_bucket_elimination_rejects_partial_order():
    net = am.parse_uai(TWO_VAR_UAI)
    with pytest.raises(ValueError):
        am.bucket_elimination_mpe(net, am.EliminationOrder((0,), 0))


def test_bucket_elimination_memory_cap():
    net = am.gen_random(14, 2, 12, 2, seed=2)
    elim = am.min_fill_order(am.primal_graph(net))
    with pytest.raises(am.LimitExceeded, match="memout"):
        am.bucket_elimination_mpe(net, elim, am.Budget(max_entries=2))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), order_seed=st.integers(0, 3))
def test_oracles_agree_on_random_networks(seed, order_seed):
    import random
    rng = random.Random(seed)
    n = rng.randint(3, 11)
    d = rng.choice([2, 3])
    net = am.gen_random(n, d, n - 2, 2, seed=seed)
    elim = am.min_fill_order(am.primal_graph(net), seed=order_seed)
    enum = am.enumerate_mpe(net)
    be = am.bucket_elimination_mpe(net, elim)
    assert close(enum.mpe_log, be.mpe_log)
    # both assignments must attain the optimum
    assert close(am.log_probability(net, be.assignment), enum.mpe_log)
    assert close(am.log_probability(net, enum.assignment), enum.mpe_log)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_oracles_agree_on_deterministic_grids(seed):
    net, evidence = am.gen_grid(3, 0.9, 2, seed=seed)
    red = am.apply_evidence(net, evidence)
    elim = am.min_fill_order(am.primal_graph(red))
    enum = am.enumerate_mpe(red)
    be = am.bucket_elimination_mpe(red, elim)
    assert close(enum.mpe_log, be.mpe_log)
    if enum.mpe_log != -math.inf:
        assert close(am.log_probability(red, be.assignment), enum.mpe_log)


def test_bucket_elimination_handles_isolated_variable():
    # a variable appearing in no shared factor still gets an assignment
    net = am.gen_random(5, 2, 0, 1, seed=0)  # all uniform priors
    elim = am.min_fill_order(am.primal_graph(net))
    res = am.bucket_elimination_mpe(net, elim)
    assert set(res.assignment) == set(net.variables)
    assert close(res.mpe_log, 5 * math.log(0.5))


def test_oracles_stop_at_the_time_limit(monkeypatch):
    """With the budget's clock ticking once per reading, BE reads it once
    per bucket and enumeration before and after building the joint."""
    net = random_chain(12)
    elim = am.decompose(net).elim
    expected = am.bucket_elimination_mpe(net, elim)
    clock = itertools.count()
    monkeypatch.setattr(limits.time, "perf_counter", lambda: next(clock))
    with pytest.raises(am.LimitExceeded, match="timeout"):
        am.bucket_elimination_mpe(net, elim, am.Budget(time_limit=5))
    assert next(clock) == 6  # the start, then buckets 1-5: four ran
    assert am.bucket_elimination_mpe(net, elim, am.Budget(time_limit=14)) == expected
    for limit, readings in ((1, 2), (2, 3)):
        clock = itertools.count()
        with pytest.raises(am.LimitExceeded, match="timeout"):
            am.enumerate_mpe(net, budget=am.Budget(time_limit=limit))
        assert next(clock) == readings
    clock = itertools.count()
    assert am.enumerate_mpe(net, budget=am.Budget(time_limit=3)) == am.enumerate_mpe(net)
