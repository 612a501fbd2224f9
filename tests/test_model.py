import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe.model import UAIParseError

from helpers import TWO_VAR_UAI, close, reference_parse_uai


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


def test_integer_tokens_are_ascii_decimal():
    # '+', '_' separators and non-ASCII digits are not integers; '-' is, so
    # a negative count still fails as negative.
    for text, message in [
            ("BAYES\n1\n1_0\n0\n",
             "line 3: expected integer cardinality of variable 0, got '1_0'"),
            ("BAYES\n+1\n2\n0\n", "line 2: expected integer variable count, got '+1'"),
            ("BAYES\n1\n2\n1\n1 \u0663\n\n2\n0.5 0.5\n",
             "line 5: expected integer scope variable of factor 0, got '\u0663'"),
            ("BAYES\n1\n2\n\uff11\n1 0\n\n2\n0.5 0.5\n",
             "line 4: expected integer factor count, got '\uff11'"),
            ("BAYES\n1\n2\n1\n1 0\n\n+2\n0.5 0.5\n",
             "line 7: expected integer table size of factor 0, got '+2'"),
            ("BAYES 1 2 -1", "line 1: negative factor count")]:
        with pytest.raises(UAIParseError, match=f"^{re.escape(message)}$"):
            am.parse_uai(text)
    # Table entries are numbers, not integers: what float() reads stays valid.
    net = am.parse_uai("BAYES\n1\n2\n1\n1 0\n\n2\n0.5 5_0e-2\n")
    assert net.factors[0].table.tolist() == [0.5, 0.5]
    assert am.parse_evidence("1 -0 007") == {0: 7}
    for text, message in [
            ("1 1_0 0", "token 2 is '1_0', expected an integer: the variable of pair 1"),
            ("1 +3 \u0663", "token 2 is '+3', expected an integer: the variable of pair 1"),
            ("1 3 \u0663", "token 3 is '\u0663', expected an integer: the value of pair 1"),
            ("+1 3 0", "token 1 is '+1', expected an integer: the pair count")]:
        with pytest.raises(ValueError, match=f"^evidence {re.escape(message)}$"):
            am.parse_evidence(text)


def test_parse_reports_the_first_error_in_reading_order():
    head = "BAYES\n2\n2 2\n3\n1 0\n2 0 1\n0\n\n"
    for tables, message in [
            # a bad entry of factor 0 is read before factor 1's table size
            ("2\n0.5 x\n\n3\n", "line 10: non-numeric entry 'x' in table of factor 0"),
            ("2\n0.5 0.5\n\n4\n0.5 0.5\n0.5 x\n\n", "line 14: non-numeric entry 'x' "
             "in table of factor 1"),
            ("2\n0.5 0.5\n\n4\n0.5 0.5\n0.5 0.5\n",
             "line 14: unexpected end of input, expected table size of factor 2"),
            ("2\n0.5 0.5\n\n4\n0.5 0.5\n0.5\n",
             "line 14: unexpected end of input, expected table of factor 1")]:
        for parse in (am.parse_uai, reference_parse_uai):
            with pytest.raises(UAIParseError, match=f"^{re.escape(message)}$"):
                parse(head + tables)
    # Value errors come after every token error, for the first factor with
    # one; within a factor a negative, NaN or infinite entry wins. An
    # empty-scope factor is no CPT: it may exceed 1, and it always warns.
    for tables, message in [
            ("2\n1.5 nan\n\n4\n-1 1 1 1\n\n1\n2\n",
             "factor 0 has negative, NaN or infinite entries"),
            ("2\n1.5 0.5\n\n4\n-1 1 1 1\n\n1\n2\n", "factor 0 has CPT entries above 1"),
            ("2\n0.5 0.5\n\n4\n1 0 1.5 inf\n\n1\n2\n",
             "factor 1 has negative, NaN or infinite entries"),
            ("2\n0.5 0.5\n\n4\n1 0 0 1\n\n1\n-2\n",
             "factor 2 has negative, NaN or infinite entries")]:
        for parse in (am.parse_uai, reference_parse_uai):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                parse(head + tables)
    with pytest.warns(UserWarning, match=re.escape("factors [2] have unnormalized")):
        am.parse_uai(head + "2\n0.5 0.5\n\n4\n1 0 0 1\n\n1\n2\n")


def _parse_outcome(parse, text):
    """What `parse` makes of `text`: the network's scopes, children and
    tables, or the error's type, message and line; plus the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            net = parse(text)
        except ValueError as e:
            result = (type(e), str(e), getattr(e, "line", None))
        else:
            result = (net.variables, net.domains,
                      [(f.scope, f.child, f.table) for f in net.factors])
    return result, [(w.category, str(w.message)) for w in caught]


_SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", "\n\n", " \n ", "\x0b", "\x0c", "\u2028"]
_MUTANTS = ["x", "-1", "nan", "1_0", "\u0663", "2", "1.5"]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), family=st.sampled_from(["random", "grid", "coding"]),
       scalar=st.none() | st.floats(0, 2),
       separators=st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=4),
       where=st.floats(0, 1, exclude_max=True),
       mutations=st.lists(st.tuples(
           st.sampled_from(["drop", "duplicate", "replace", "extra"]),
           st.integers(-3, 3), st.sampled_from(_MUTANTS)), max_size=3))
def test_parse_uai_matches_token_at_a_time_reference(seed, family, scalar, separators,
                                                     where, mutations):
    """Valid texts are generated nets (with an empty-scope factor when
    `scalar` is set) written with random whitespace; invalid ones change up
    to three tokens near one place, so that errors can compete."""
    rng = np.random.default_rng(seed)
    if family == "random":
        n = int(rng.integers(1, 9))
        net = am.gen_random(n, int(rng.integers(1, 4)), max(0, n - 2),
                            min(2, n - 1), seed=seed)
    elif family == "grid":
        net = am.gen_grid(int(rng.integers(2, 4)), 0.5, 0, seed=seed)[0]
    else:  # its likelihood factors have entries above 1, which CPTs may not
        net = am.gen_coding(int(rng.integers(2, 5)), 2, 0.1, seed=seed)[0]
    if scalar is not None:
        net.factors.insert(int(rng.integers(len(net.factors) + 1)),
                           am.Factor((), np.array(scalar)))
    toks = am.serialize_uai(net).split()
    at = int(where * len(toks))
    for op, offset, token in mutations:
        k = min(max(at + offset, 0), len(toks) - 1)
        if op == "drop":
            del toks[k]
        elif op == "duplicate":
            toks.insert(k, toks[k])
        elif op == "replace":
            toks[k] = token
        else:
            toks.append(token)
    gaps = rng.integers(len(separators), size=len(toks))
    text = "".join(tok + separators[g] for tok, g in zip(toks, gaps))
    got, got_warnings = _parse_outcome(am.parse_uai, text)
    want, want_warnings = _parse_outcome(reference_parse_uai, text)
    assert got_warnings == want_warnings
    assert got[:2] == want[:2]
    if isinstance(want[0], type):
        assert got == want
    else:
        assert [f[:2] for f in got[2]] == [f[:2] for f in want[2]]
        for (_, _, a), (_, _, b) in zip(got[2], want[2]):
            assert a.shape == b.shape and np.array_equal(a, b)
