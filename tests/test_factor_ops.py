import itertools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import andor_mpe as am
from andor_mpe import cli, heuristics, oracle
from andor_mpe.factor_ops import (LogFactor, combine, log_factors, max_out,
                                  radix_pairs)
from andor_mpe.model import Factor

from helpers import close, reference_combine, reference_log_factors, restrict


def same(f: LogFactor, g: LogFactor) -> bool:
    """Bit-identical: same scope, shape, dtype and bytes."""
    return (f.scope == g.scope and f.table.shape == g.table.shape
            and f.table.dtype == g.table.dtype
            and np.ascontiguousarray(f.table).tobytes()
            == np.ascontiguousarray(g.table).tobytes())


@st.composite
def linear_factors(draw):
    """1-4 factors over up to 5 variables of domain 1-3. Scopes come in a
    random order and may be empty; entries may be 0, which is -inf in log
    space."""
    n = draw(st.integers(1, 5))
    domains = {v: draw(st.integers(1, 3)) for v in range(n)}
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        scope = tuple(draw(st.permutations(range(n)))[:draw(st.integers(0, n))])
        size = math.prod(domains[v] for v in scope)
        entries = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                min_size=size, max_size=size))
        table = np.array(entries, dtype=float).reshape(
            tuple(domains[v] for v in scope))
        factors.append(Factor(scope=scope, table=table))
    return domains, factors


def brute_combine(factors, scope, domains):
    """{assignment tuple over `scope`: the entries' sum, left to right}."""
    out = {}
    for xs in itertools.product(*(range(domains[v]) for v in scope)):
        asg = dict(zip(scope, xs))
        total = 0.0
        for f in factors:
            total += float(f.table[tuple(asg[v] for v in f.scope)])
        out[xs] = total
    return out


@settings(max_examples=300, deadline=None)
@given(case=linear_factors(), data=st.data())
def test_factor_ops_match_references_and_brute_force(case, data):
    domains, linear = case
    logs = log_factors(linear)
    ref_logs = reference_log_factors(linear)
    assert len(logs) == len(ref_logs) == len(linear)
    for f, g, lin in zip(logs, ref_logs, linear):
        assert same(f, g)
        for idx in np.ndindex(lin.table.shape):
            x = float(lin.table[idx])
            assert close(f.table[idx], math.log(x) if x > 0 else -math.inf)
    copies = [f.table.copy() for f in logs]

    combined = combine(logs)
    assert same(combined, reference_combine(logs))
    assert list(combined.scope) == list(dict.fromkeys(
        v for f in logs for v in f.scope))
    brute = brute_combine(logs, combined.scope, domains)
    for xs, value in brute.items():
        assert combined.table[xs] == value

    if combined.scope:
        var = data.draw(st.sampled_from(combined.scope))
        msg = max_out(combined, var)
        assert same(msg, max_out(reference_combine(logs), var))
        assert msg.scope == tuple(v for v in combined.scope if v != var)
        k = combined.scope.index(var)
        for xs in itertools.product(*(range(domains[v]) for v in msg.scope)):
            best = max(brute[xs[:k] + (x,) + xs[k:]] for x in range(domains[var]))
            assert msg.table[xs] == best
    for f, copy in zip(logs, copies):
        assert np.array_equal(f.table, copy)  # inputs are left as they were


def test_single_factor_combine_keeps_its_table():
    f = log_factors([Factor(scope=(3, 1), table=np.array([[0.5, 0.0, 0.5]]))])[0]
    out = combine([f])
    assert same(out, reference_combine([f]))
    assert same(max_out(out, 1), LogFactor((3,), np.array([math.log(0.5)])))
    assert same(max_out(out, 3), restrict(f, {3: 0}))


def test_row_looks_up_every_entry():
    """A table's row, its flat list indexed by its `radix_pairs`, holds
    every entry, and an `SmbEvaluator` whose one row it is reads them."""
    rng = np.random.default_rng(0)
    f = LogFactor((4, 0, 2), np.log(rng.random((2, 3, 1))))
    flat = f.table.ravel().tolist()
    pairs = radix_pairs(f.scope, f.table.shape)
    smb = am.SmbEvaluator(0.0, {1: [(flat, pairs, 0)]}, len(flat))
    for idx in np.ndindex(f.table.shape):
        asg = dict(zip(f.scope, idx))
        for a in (asg, [asg.get(v, 0) for v in range(5)]):
            assert flat[sum(s * a[u] for u, s in pairs)] == f.table[idx]
            assert smb.h_or(1, a) == f.table[idx]


def _nets():
    for seed in range(4):
        yield am.gen_random(20, 2, 17, 2, seed=seed)
        yield am.gen_random(12, 3, 9, 3, seed=seed)
        yield am.apply_evidence(*am.gen_grid(5, 0.5, 3, seed=seed))
        yield am.gen_coding(8, 3, 0.3, seed=seed)[0]


def test_compile_and_oracles_match_reference_algebra(monkeypatch):
    """SMB tables, DMB root bounds and BE results are bit-identical when
    `combine` and the conversion are the references."""

    def run(convert):
        out = []
        for net in _nets():
            tree = am.decompose(net)
            for i in (1, 2, 3):
                tables = heuristics.compile_smb(convert(net.factors), tree, i)
                out.append(repr(tables.root_bound))
                out.extend(repr(row[0]) for v in tree.elim.order
                           for row in tables.exiting[v])
                dmb = heuristics.DmbEvaluator(convert(net.factors), tree, i)
                out.append(repr(dmb.h_or(tree.root, {})))
            res = oracle.bucket_elimination_mpe(net, tree.elim)
            out.append(repr((res.mpe_log, sorted(res.assignment.items()))))
        return out

    new = run(log_factors)
    monkeypatch.setattr(heuristics, "combine", reference_combine)
    monkeypatch.setattr(oracle, "combine", reference_combine)
    monkeypatch.setattr(oracle, "log_factors", reference_log_factors)
    assert run(reference_log_factors) == new


def test_build_problem_converts_each_factor_once(monkeypatch):
    calls = []

    def counting(factors):
        calls.append(len(factors))
        return log_factors(factors)

    monkeypatch.setattr(cli, "log_factors", counting)
    net = am.gen_random(12, 2, 9, 2, seed=1)
    tree = am.decompose(net)
    for heuristic in ("smb", "dmb"):
        calls.clear()
        problem = am.build_problem(net, tree, 2, heuristic=heuristic)
        assert calls == [len(net.factors)]
        assert am.aobf(problem).status == "solved"
