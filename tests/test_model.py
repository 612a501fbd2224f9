import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe.model import UAIParseError

from helpers import TWO_VAR_UAI, close


def test_parse_single_variable_prior():
    net = am.parse_uai("BAYES\n1\n2\n1\n1 0\n\n2\n0.6 0.4\n")
    assert net.variables == [0]
    assert net.domains == {0: 2}
    assert len(net.factors) == 1
    assert net.factors[0].scope == (0,)
    np.testing.assert_allclose(net.factors[0].table, [0.6, 0.4])


def test_parse_table_length_mismatch():
    bad = "BAYES\n2\n2 2\n1\n2 0 1\n\n3\n0.1 0.2 0.7\n"
    with pytest.raises(UAIParseError, match="table length mismatch"):
        am.parse_uai(bad)


def test_parse_errors_name_line_numbers():
    with pytest.raises(UAIParseError, match="line 1"):
        am.parse_uai("MARKOV\n1\n2\n0\n")
    with pytest.raises(UAIParseError, match="non-numeric"):
        am.parse_uai("BAYES\n1\n2\n1\n1 0\n\n2\n0.6 oops\n")
    with pytest.raises(UAIParseError) as info:
        am.parse_uai("BAYES\n2\n2 x\n")
    copy = pickle.loads(pickle.dumps(info.value))  # as a worker process returns it
    assert (copy.line, str(copy)) == (3, str(info.value))
    with pytest.raises(UAIParseError, match=r"line 5: factor 0 scope \(0, 0\) repeats"):
        am.parse_uai("BAYES\n1\n2\n1\n2 0 0\n\n4\n0.5 0.5 0.5 0.5\n")
    with pytest.raises(UAIParseError, match="line 1: negative factor count"):
        am.parse_uai("BAYES 1 2 -1")
    with pytest.raises(UAIParseError, match="line 5: negative scope size of factor 0"):
        am.parse_uai("BAYES\n1\n2\n1\n-1\n\n1\n0.5\n")
    # one more table than the declared factor count
    with pytest.raises(UAIParseError,
                       match="line 10: unexpected token '2' after the last table"):
        am.parse_uai("BAYES\n1\n2\n1\n1 0\n\n2\n0.4 0.6\n\n2\n0.5 0.5\n")
    with pytest.raises(UAIParseError, match="line 5: unexpected token 'x'"):
        am.parse_uai("BAYES\n1\n2\n0\nx\n")


def test_validate_rejects_nan_and_repeated_scope_variables():
    nan = am.BeliefNetwork([0], {0: 2}, [am.Factor((0,), np.array([np.nan, 1.0]), 0)])
    inf = am.BeliefNetwork([0], {0: 2}, [am.Factor((), np.array(np.inf))])
    repeated = am.BeliefNetwork([0], {0: 2}, [am.Factor((0, 0), np.full((2, 2), 0.5), 0)])
    for net, message in ((nan, "NaN"), (inf, "infinite"),
                         (repeated, "repeats a variable")):
        with pytest.raises(ValueError, match=message):
            net.validate()


def test_parse_warns_on_unnormalized_rows():
    text = "BAYES\n1\n2\n1\n1 0\n\n2\n0.5 0.9\n"
    with pytest.warns(UserWarning, match="unnormalized"):
        am.parse_uai(text)


def _equal_networks(a, b):
    if a.variables != b.variables or a.domains != b.domains:
        return False
    if len(a.factors) != len(b.factors):
        return False
    for fa, fb in zip(a.factors, b.factors):
        if fa.scope != fb.scope:
            return False
        if not np.allclose(fa.table, fb.table, rtol=0, atol=0):
            return False
    return True


def test_round_trip_identity():
    net = am.parse_uai(TWO_VAR_UAI)
    once = am.parse_uai(am.serialize_uai(net))
    twice = am.parse_uai(am.serialize_uai(once))
    assert _equal_networks(once, twice)
    assert _equal_networks(net, once)


def test_round_trip_preserves_deterministic_zeros():
    net = am.gen_grid(3, 1.0, 0, seed=5)[0]
    reparsed = am.parse_uai(am.serialize_uai(net))
    for fa, fb in zip(net.factors, reparsed.factors):
        assert np.array_equal(fa.table, fb.table)
        assert set(np.unique(fb.table)) <= {0.0, 1.0}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 10), d=st.integers(2, 3))
def test_round_trip_idempotent_on_generated(seed, n, d):
    net = am.gen_random(n, d, max(0, n - 2), min(2, n - 1), seed=seed)
    once = am.parse_uai(am.serialize_uai(net))
    twice = am.parse_uai(am.serialize_uai(once))
    assert _equal_networks(once, twice)


def test_apply_evidence_empty_is_identity():
    net = am.parse_uai(TWO_VAR_UAI)
    assert am.apply_evidence(net, {}) is net


def test_apply_evidence_slices_chain():
    net = am.parse_uai(TWO_VAR_UAI)  # A -> B
    red = am.apply_evidence(net, {1: 1})
    assert red.variables == [0]
    unary = [f for f in red.factors if f.scope == (0,)]
    assert len(unary) == 2  # prior on A plus sliced P(B=1|A)
    sliced = unary[1]
    np.testing.assert_allclose(sliced.table, [0.2, 0.9])


def test_apply_evidence_rejects_bad_values():
    net = am.parse_uai(TWO_VAR_UAI)
    with pytest.raises(ValueError):
        am.apply_evidence(net, {7: 0})
    with pytest.raises(ValueError):
        am.apply_evidence(net, {0: 5})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_evidence_reduction_preserves_constrained_max(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    net = am.gen_random(n, 2, n - 2, min(2, n - 1), seed=seed)
    ev_var = int(rng.integers(n))
    ev_val = int(rng.integers(2))
    red = am.apply_evidence(net, {ev_var: ev_val})
    # brute-force over full assignments consistent with the evidence
    best = -math.inf
    for flat in range(2 ** n):
        x = {v: (flat >> v) & 1 for v in range(n)}
        if x[ev_var] != ev_val:
            continue
        best = max(best, am.log_probability(net, x))
    reduced_best = am.enumerate_mpe(red).mpe_log + red.log_constant
    assert close(best, reduced_best)


def test_primal_graph_single_factor_clique():
    net = am.BeliefNetwork(
        variables=[0, 1, 2], domains={0: 2, 1: 2, 2: 2},
        factors=[am.Factor(scope=(0, 1, 2),
                           table=np.full((2, 2, 2), 0.125), child=2)])
    g = am.primal_graph(net)
    assert g == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}


def test_primal_graph_chain_and_v_structure():
    chain = am.gen_grid(2, 0.0, 0, seed=0)[0]
    # 2x2 grid: 0-1, 0-2 arcs and node 3 with parents {1, 2} (moralized)
    g = am.primal_graph(chain)
    assert 2 in g[1] and 1 in g[2]  # moral edge between parents of 3
    assert g[0] == {1, 2}


def test_log_probability_matches_hand_value():
    net = am.parse_uai(TWO_VAR_UAI)
    assert close(am.log_probability(net, {0: 1, 1: 1}), math.log(0.6 * 0.9))
    assert close(am.log_probability(net, {0: 0, 1: 0}), math.log(0.4 * 0.8))


def test_log_probability_zero_entry_is_neg_inf():
    net = am.gen_grid(3, 1.0, 0, seed=1)[0]
    # deterministic grid: flip a value off the deterministic support
    found = False
    for flat in range(2 ** 9):
        x = {v: (flat >> v) & 1 for v in range(9)}
        if am.log_probability(net, x) == -math.inf:
            found = True
            break
    assert found


def test_log_probability_requires_total_assignment():
    net = am.parse_uai(TWO_VAR_UAI)
    with pytest.raises(ValueError):
        am.log_probability(net, {0: 1})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    net = am.gen_random(n, 2, n - 1 if n > 1 else 0, 1, seed=seed)
    total = 0.0
    for flat in range(2 ** n):
        x = {v: (flat >> v) & 1 for v in range(n)}
        total += math.exp(am.log_probability(net, x))
    assert abs(total - 1.0) < 1e-9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_log_probability_equals_direct_product(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    net = am.gen_random(n, 3, n - 2, min(2, n - 1), seed=seed)
    x = {v: int(rng.integers(3)) for v in range(n)}
    direct = 1.0
    for f in net.factors:
        direct *= float(f.table[tuple(x[v] for v in f.scope)])
    lp = am.log_probability(net, x)
    if direct == 0.0:
        assert lp == -math.inf
    else:
        assert abs(math.exp(lp) - direct) <= 1e-12 * direct


def test_parse_evidence_pairs():
    assert am.parse_evidence("2 3 1 7 0") == {3: 1, 7: 0}
    assert am.parse_evidence("0") == {}
    with pytest.raises(ValueError):
        am.parse_evidence("2 3 1")
    with pytest.raises(ValueError, match="evidence names variable 1 twice"):
        am.parse_evidence("2 1 1 1 0")
    for text, message in [
            ("1 x 0", "token 2 is 'x', expected an integer: the variable of pair 1"),
            ("1.0 0 1", "token 1 is '1.0', expected an integer: the pair count"),
            ("x", "token 1 is 'x', expected an integer: the pair count"),
            ("2 0 1 1 y", "token 5 is 'y', expected an integer: the value of pair 2")]:
        with pytest.raises(ValueError, match=f"^evidence {re.escape(message)}$"):
            am.parse_evidence(text)
