"""End-to-end acceptance checks.

Each test emits one PASS/FAIL line through pytest's terminal reporter (so the
verdicts survive output capture and show up in any log). Later criteria reuse
the solved runs accumulated by earlier ones, so this module is meant to run
in file order (pytest's default).
"""

import json
import random
import sys
import time

import pytest

import andor_mpe as am
from andor_mpe.cli import main
from andor_mpe.search import _assert_cache_bound
from andor_mpe.structure import context_cache_bound

from helpers import close, exact_subproblem_values, reference_child_bounds

# (network, value, assignment, marked-arc weight sum or None) for every
# solved search run produced by the criteria below; criterion 7 audits them.
SOLVED_RUNS = []


_REPORTER = [None]


@pytest.fixture(autouse=True)
def _verdict_reporter(request):
    _REPORTER[0] = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(num, desc, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    line = f"{'PASS' if ok else 'FAIL'}: criterion {num} - {desc}{tail}"
    if _REPORTER[0] is not None:
        _REPORTER[0].write_line("\n" + line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} failed: {desc}"


def _random_instance(seed):
    rng = random.Random(seed)
    d = 2 if seed % 2 == 0 else 3
    # d=3 capped lower so the enumeration oracle stays within its joint cap
    n = rng.randint(5, 15 if d == 2 else 13)
    return am.gen_random(n, d, n - 2, 2, seed=seed)


def test_criterion_1_oracle_equivalence():
    """200 random + 50 grid instances: AOBF and AOBB match enumeration."""
    t0 = time.perf_counter()
    mismatches = 0
    runs = 0
    nets = [_random_instance(s) for s in range(200)]
    for s in range(50):
        net, evidence = am.gen_grid(4, 0.9, 2, seed=s)
        red = am.apply_evidence(net, evidence)
        if red.variables:
            nets.append(red)
    for net in nets:
        exact = am.enumerate_mpe(net).mpe_log
        for ibound in (2, 4, 6):
            problem = am.build_problem(net, am.decompose(net), ibound)
            for res in (am.aobf(problem), am.aobb(problem)):
                runs += 1
                if res.status != "solved" or not close(res.mpe_log, exact):
                    mismatches += 1
                else:
                    SOLVED_RUNS.append((net, res.mpe_log, res.assignment,
                                        res.marked_weight_sum))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 120.0
    report(1, "AOBF and AOBB match the enumeration oracle within 1e-9", ok,
           f"{runs} runs, {mismatches} mismatches, {elapsed:.1f}s")


def test_criterion_2_heuristic_admissibility():
    """Mini-bucket h never underestimates the exact conditioned value."""
    violations = 0
    nodes = 0
    for s in range(50):
        rng = random.Random(1000 + s)
        n = rng.randint(5, 12)
        net = am.gen_random(n, 2, n - 2, 2, seed=1000 + s)
        ibound = rng.choice([1, 2, 3])
        problem = am.build_problem(net, am.decompose(net), ibound)
        tree = problem.tree
        _, or_value, and_value = exact_subproblem_values(problem)
        ev = problem.evaluator

        def walk(X, asg):
            nonlocal violations, nodes
            nodes += 1
            if ev.h_or(X, asg) < or_value(X, asg) - 1e-9:
                violations += 1
            for x in range(problem.domains[X]):
                asg[X] = x
                nodes += 1
                if reference_child_bounds(problem, X, asg)[1] < and_value(X, asg) - 1e-9:
                    violations += 1
                for c in tree.children[X]:
                    walk(c, asg)
                del asg[X]

        walk(tree.root, {})
    report(2, "static mini-bucket heuristic is admissible at every node",
           violations == 0, f"{nodes} nodes checked, {violations} violations")


def test_criterion_3_exact_heuristic_degenerates_search():
    """At i = w*+1 the bound is exact and AOBF expands (near) only the
    solution tree: expansions <= solution tree nodes (one OR and one AND
    node per variable, 2 * n) + n * max domain."""
    failures = 0
    for s in range(100):
        rng = random.Random(2000 + s)
        n = rng.randint(8, 13)
        net = am.gen_random(n, 2, n - 2, 2, seed=2000 + s)
        exact = am.enumerate_mpe(net).mpe_log
        tree = am.decompose(net)
        problem = am.build_problem(net, tree, tree.elim.induced_width + 1)
        res = am.aobf(problem)
        if not close(problem.evaluator.tables.root_bound, exact):
            failures += 1
            continue
        if res.stats.expansions > 2 * n + n * 2:
            failures += 1
            continue
        SOLVED_RUNS.append((net, res.mpe_log, res.assignment,
                            res.marked_weight_sum))
    report(3, "exact heuristic (i = w*+1) makes best-first expand only the "
              "solution tree", failures == 0, f"100 instances, {failures} failures")


def test_criterion_4_cache_entries_bounded_by_context_products():
    """Per-variable cache entries never exceed the product of context
    domains. The same check runs as an internal assertion after every
    search; here it is exercised explicitly."""
    ok = True
    checked = 0
    for s in range(20):
        net = am.gen_random(14, 2, 12, 2, seed=3000 + s)
        problem = am.build_problem(net, am.decompose(net), 2)
        ctx = problem.contexts
        for res in (am.aobf(problem), am.aobb(problem)):
            checked += 1
            bound = sum(context_cache_bound(ctx[v], net.domains)
                        for v in net.variables)
            if res.status != "solved" or res.stats.cache_entries > bound:
                ok = False
    # the internal assertion must actually fire on an over-full cache
    try:
        _assert_cache_bound({0: {k: None for k in range(3)}}, {0: (0,)}, {0: 2})
        ok = False
    except AssertionError:
        pass
    report(4, "context cache sizes respect the per-variable domain-product "
              "bound", ok, f"{checked} searches audited")


def test_criterion_5_best_first_expands_fewer_nodes():
    """On hard instances AOBF expands no more nodes than AOBB on average,
    and the gap shrinks as the heuristic strengthens."""
    t0 = time.perf_counter()
    seeds = range(500, 520)
    ibounds = [2, 3, 4, 6, 8, 10]
    aobf_nodes = {i: [] for i in ibounds}
    ratios = {i: [] for i in ibounds}
    aobb_nodes = {i: [] for i in ibounds}
    for s in seeds:
        net = am.gen_random(60, 2, 54, 2, seed=s)
        for i in ibounds:
            problem = am.build_problem(net, am.decompose(net, seed=s), i)
            bf = am.aobf(problem)
            bb = am.aobb(problem)
            assert bf.status == "solved" and bb.status == "solved"
            assert close(bf.mpe_log, bb.mpe_log)
            aobf_nodes[i].append(bf.stats.expansions)
            aobb_nodes[i].append(bb.stats.expansions)
            ratios[i].append(bb.stats.expansions / bf.stats.expansions)
            SOLVED_RUNS.append((net, bf.mpe_log, bf.assignment,
                                bf.marked_weight_sum))
            SOLVED_RUNS.append((net, bb.mpe_log, bb.assignment, None))
    mean = lambda xs: sum(xs) / len(xs)
    dominates = all(mean(aobf_nodes[i]) <= mean(aobb_nodes[i])
                    for i in (2, 3, 4))
    mean_ratios = [mean(ratios[i]) for i in ibounds]
    shrinking = all(a >= b - 1e-12 for a, b in zip(mean_ratios, mean_ratios[1:]))
    elapsed = time.perf_counter() - t0
    ok = dominates and shrinking and elapsed < 600.0
    report(5, "best-first search dominates branch-and-bound and the gap "
              "narrows with stronger heuristics", ok,
           "mean AOBB/AOBF node ratios "
           + ", ".join(f"i={i}: {r:.3f}" for i, r in zip(ibounds, mean_ratios))
           + f"; {elapsed:.1f}s")


def test_criterion_6_dynamic_bound_never_looser_than_static():
    """DMB at the same i-bound is at least as tight as SMB at matched nodes
    sampled along random root-to-leaf descents (>= 100 nodes overall)."""
    violations = 0
    compared = 0
    for k in range(20):
        net = am.gen_random(9, 2, 7, 2, seed=100 + k)
        tree = am.decompose(net, seed=k)
        smb_problem = am.build_problem(net, tree, 2, heuristic="smb")
        dmb_problem = am.build_problem(net, tree, 2, heuristic="dmb")
        s_ev, d_ev = smb_problem.evaluator, dmb_problem.evaluator
        rng = random.Random(k)
        for _ in range(8):
            asg = {}
            X = tree.root
            while True:
                compared += 1
                if d_ev.h_or(X, asg) > s_ev.h_or(X, asg) + 1e-9:
                    violations += 1
                asg[X] = rng.randrange(smb_problem.domains[X])
                kids = tree.children[X]
                if not kids:
                    break
                X = rng.choice(kids)
    ok = violations == 0 and compared >= 100
    report(6, "dynamic mini-bucket bound is never looser than the static one "
              "at sampled nodes", ok,
           f"{compared} nodes compared, {violations} violations")


def test_criterion_7_solutions_reproduce_their_value():
    """For every solved run above, the returned assignment's probability
    (product of CPT entries) reproduces the reported MPE value."""
    assert SOLVED_RUNS, "earlier criteria recorded no solved runs"
    bad = 0
    for net, value, assignment, weight_sum in SOLVED_RUNS:
        if not close(am.log_probability(net, assignment), value):
            bad += 1
        elif weight_sum is not None and not close(weight_sum, value):
            bad += 1
    report(7, "returned assignments reproduce the reported MPE value within "
              "1e-9", bad == 0, f"{len(SOLVED_RUNS)} runs audited, {bad} bad")


def test_criterion_8_end_to_end_reproducibility(tmp_path):
    """generate -> serialize -> parse -> solve twice with fixed seeds gives
    byte-identical CSV output."""
    gens = [
        ["generate", "--family", "random", "--out", str(tmp_path / "r"),
         "--n", "12", "--d", "2", "--c", "10", "--p", "2", "--seed", "3"],
        ["generate", "--family", "grid", "--out", str(tmp_path / "g"),
         "--n", "4", "--det-fraction", "0.5", "--num-evidence", "2",
         "--seed", "4"],
        ["generate", "--family", "coding", "--out", str(tmp_path / "c"),
         "--n", "6", "--p", "3", "--sigma2", "0.22", "--seed", "5"],
    ]
    for argv in gens:
        assert main(argv) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "instances": [
            {"id": "r", "uai": str(tmp_path / "r.uai")},
            {"id": "g", "uai": str(tmp_path / "g.uai"),
             "evidence": str(tmp_path / "g.uai.evid")},
            {"id": "c", "uai": str(tmp_path / "c.uai")},
        ],
        "algorithms": ["aobf", "aobb"],
        "ibounds": [2, 4],
        "seed": 0,
    }))
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}.csv"
        assert main(["bench", "--manifest", str(manifest), "--out", str(out),
                     "--redact-time"]) == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] and b"solved" in outs[0]
    report(8, "repeated seeded generate/solve sweeps produce byte-identical "
              "CSVs", ok, f"{len(outs[0])} bytes")
