import csv
import io
import json
import math
import sys
from contextlib import redirect_stdout

import pytest

import andor_mpe as am
from andor_mpe import limits
from andor_mpe.cli import (CSV_COLUMNS, EXIT_INPUT_ERROR, EXIT_SOLVED,
                           EXIT_TIMEOUT, RunRecord, main, run_instance)

from helpers import TWO_VAR_UAI, close, random_chain


@pytest.fixture
def two_var_files(tmp_path):
    uai = tmp_path / "net.uai"
    uai.write_text(TWO_VAR_UAI)
    evid = tmp_path / "net.uai.evid"
    evid.write_text("1 1 1\n")
    return uai, evid


def solve_stdout(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_run_instance_two_vars():
    net = am.parse_uai(TWO_VAR_UAI)
    record, assignment = run_instance(net, {}, algorithm="aobf", ibound=2)
    assert record.status == "solved"
    assert close(record.mpe_log10, math.log10(0.54))
    assert close(record.mpe_prob, 0.54, tol=1e-12)
    assert assignment == {0: 1, 1: 1}


def test_run_instance_reports_evidence_adjusted_probability():
    net = am.parse_uai(TWO_VAR_UAI)
    record, assignment = run_instance(net, {1: 1})
    # max_A P(A, B=1) = 0.6 * 0.9
    assert close(record.mpe_prob, 0.54, tol=1e-12)
    assert assignment == {0: 1, 1: 1}
    assert record.e == 1 and record.n == 2


def test_run_instance_all_evidence():
    net = am.parse_uai(TWO_VAR_UAI)
    record, assignment = run_instance(net, {0: 0, 1: 0})
    assert record.status == "solved"
    assert close(record.mpe_prob, 0.4 * 0.8, tol=1e-12)
    assert assignment == {0: 0, 1: 0}


def test_run_instance_algorithms_agree():
    net = am.gen_random(10, 2, 8, 2, seed=5)
    probs = []
    for algorithm in ("aobf", "aobb", "brute", "be"):
        record, _ = run_instance(net, {}, algorithm=algorithm, ibound=3)
        assert record.status == "solved"
        probs.append(record.mpe_log10)
    assert max(probs) - min(probs) <= 1e-9


def test_run_instance_timeout_status():
    net = am.gen_random(10, 2, 8, 2, seed=5)
    record, assignment = run_instance(net, {}, time_limit=0.0)
    assert record.status == "timeout"
    assert record.mpe_log10 is None and assignment is None


@pytest.mark.parametrize("algorithm, n", [("be", 2000), ("brute", 20)])
def test_oracles_hold_the_time_limit(algorithm, n):
    # `brute` on 2,000 variables is refused by the enumeration cap
    net = random_chain(n)
    assert run_instance(net, {}, algorithm=algorithm)[0].status == "solved"
    record, assignment = run_instance(net, {}, algorithm=algorithm,
                                      time_limit=1e-6)
    assert record.status == "timeout"
    assert record.mpe_log10 is None and assignment is None


def test_an_expired_budget_ends_ordering_and_heuristic_build(monkeypatch):
    """`decompose`, `build_problem` and the first DMB `h_or` each check the
    budget, and a search ends with the status of the evaluator's limit."""
    net = am.gen_random(12, 2, 10, 2, seed=3)
    tree = am.decompose(net)
    expired = am.Budget(time_limit=0)
    with pytest.raises(am.LimitExceeded, match="timeout"):
        am.decompose(net, budget=expired)
    with pytest.raises(am.LimitExceeded, match="timeout"):
        am.build_problem(net, tree, 2, heuristic="smb", budget=expired)
    now = [0.0]
    monkeypatch.setattr(limits.time, "perf_counter", lambda: now[0])
    problem = am.build_problem(net, tree, 2, heuristic="dmb",
                               budget=am.Budget(time_limit=1))
    now[0] = 1.0
    with pytest.raises(am.LimitExceeded, match="timeout"):
        problem.evaluator.h_or(tree.root, [-1] * 12)
    for search in (am.aobf, am.aobb):
        res = search(problem)
        assert res.status == "timeout" and res.assignment is None


class _CountingBudget(am.Budget):
    """No limit, but records the function that makes each `check` call,
    and raises LimitExceeded("timeout") at call `k`."""

    def __init__(self, k=None):
        super().__init__()
        self.k = k
        self.callers = []
        self.entries = []

    def check(self, nodes=0, entries=0):
        self.callers.append(sys._getframe(1).f_code.co_name)
        self.entries.append(entries)
        if len(self.callers) == self.k:
            raise am.LimitExceeded("timeout")


def test_tree_and_dmb_plan_check_the_budget_in_their_long_stretches():
    """`build_pseudo_tree` checks once per variable as it gets its parent
    and once as the DFS reaches it, after its elimination loop; a DMB
    compile checks after its subtree sort and after its factor split,
    before `mini_bucket_schedule`, which checks once per scope it files
    before it schedules any message. A limit that runs out in any of these
    stretches stops the stage there."""
    net = random_chain(2000, 0)
    g = am.primal_graph(net)
    elim = am.min_fill_order(g)
    n = len(g)
    counted = _CountingBudget()
    tree = am.build_pseudo_tree(g, elim, counted)
    assert counted.callers == ["build_pseudo_tree"] * (3 * n - 1)
    for k in (n + 1, 2 * n, 3 * n - 1):  # the first parent, the DFS's first and last
        with pytest.raises(am.LimitExceeded, match="timeout"):
            am.build_pseudo_tree(g, elim, _CountingBudget(k))
    factors = am.log_factors(net.factors)
    counted = _CountingBudget()
    evaluator = am.DmbEvaluator(factors, tree, 2, counted)
    filed = len(counted.callers)  # one per factor
    evaluator.h_or(tree.root, [-1] * n)
    assert counted.callers[filed:filed + 3] == ["_compile", "_compile",
                                               "mini_bucket_schedule"]
    filing = slice(filed + 2, filed + 2 + len(factors))
    assert counted.callers[filing] == ["mini_bucket_schedule"] * len(factors)
    assert counted.entries[filing] == [0] * len(factors)  # no message yet
    for k in (filed + 1, filed + 2, filed + 3):  # the last: the first scope filed
        evaluator = am.DmbEvaluator(factors, tree, 2, _CountingBudget(k))
        with pytest.raises(am.LimitExceeded, match="timeout"):
            evaluator.h_or(tree.root, [-1] * n)


def test_run_instance_memout_status():
    net = am.gen_random(16, 2, 14, 2, seed=5)
    record, _ = run_instance(net, {}, heuristic="smb", ibound=8,
                             memory_limit_mb=1e-5)
    assert record.status == "memout"


# Recorded before `decompose`/`build_problem` existed; a refactor of the
# pipeline must leave every row unchanged.
GOLDEN_ROWS = [
    ['random', '12', '0', '3', '6', 'aobf', 'smb', '2', '0', 'solved', '-1.80120320291', '0.0158050835904', '52', '4', '56', '-'],
    ['random', '12', '0', '3', '6', 'aobf', 'dmb', '2', '0', 'solved', '-1.80120320291', '0.0158050835904', '27', '0', '32', '-'],
    ['random', '12', '0', '3', '6', 'aobb', 'smb', '2', '0', 'solved', '-1.80120320291', '0.0158050835904', '64', '0', '16', '-'],
    ['random', '12', '0', '3', '6', 'aobb', 'dmb', '2', '0', 'solved', '-1.80120320291', '0.0158050835904', '55', '0', '20', '-'],
    ['random', '12', '0', '3', '6', 'be', 'smb', '-', '0', 'solved', '-1.80120320291', '0.0158050835904', '0', '0', '0', '-'],
    ['random', '12', '0', '3', '6', 'brute', 'smb', '-', '0', 'solved', '-1.80120320291', '0.0158050835904', '0', '0', '0', '-'],
    ['grid', '16', '2', '3', '7', 'aobf', 'smb', '2', '0', 'solved', '-inf', '0', '42', '0', '46', '-'],
    ['grid', '16', '2', '3', '7', 'aobf', 'dmb', '2', '0', 'solved', '-inf', '0', '25', '0', '28', '-'],
    ['grid', '16', '2', '3', '7', 'aobb', 'smb', '2', '0', 'solved', '-inf', '0', '1', '0', '0', '-'],
    ['grid', '16', '2', '3', '7', 'aobb', 'dmb', '2', '0', 'solved', '-inf', '0', '1', '0', '0', '-'],
    ['grid', '16', '2', '3', '7', 'be', 'smb', '-', '0', 'solved', '-inf', '0', '0', '0', '0', '-'],
    ['grid', '16', '2', '3', '7', 'brute', 'smb', '-', '0', 'solved', '-inf', '0', '0', '0', '0', '-'],
    ['coding', '12', '0', '4', '5', 'aobf', 'smb', '2', '0', 'solved', '-4.04265436436', '9.06453720058e-05', '18', '0', '24', '-'],
    ['coding', '12', '0', '4', '5', 'aobf', 'dmb', '2', '0', 'solved', '-4.04265436436', '9.06453720058e-05', '18', '0', '24', '-'],
    ['coding', '12', '0', '4', '5', 'aobb', 'smb', '2', '0', 'solved', '-4.04265436436', '9.06453720058e-05', '18', '0', '6', '-'],
    ['coding', '12', '0', '4', '5', 'aobb', 'dmb', '2', '0', 'solved', '-4.04265436436', '9.06453720058e-05', '18', '0', '6', '-'],
    ['coding', '12', '0', '4', '5', 'be', 'smb', '-', '0', 'solved', '-4.04265436436', '9.06453720058e-05', '0', '0', '0', '-'],
    ['coding', '12', '0', '4', '5', 'brute', 'smb', '-', '0', 'solved', '-4.04265436436', '9.06453720058e-05', '0', '0', '0', '-'],
    # the heuristic build runs out of memory; w* and h are still reported
    ['random', '12', '0', '3', '6', 'aobf', 'smb', '8', '0', 'memout', '-', '-', '0', '0', '0', '-'],
]


def test_run_instance_golden_rows():
    runs = [("aobf", "smb"), ("aobf", "dmb"), ("aobb", "smb"), ("aobb", "dmb"),
            ("be", "smb"), ("brute", "smb")]
    random_net = am.gen_random(12, 2, 10, 2, seed=3)
    grid, grid_evidence = am.gen_grid(4, 0.5, 2, seed=4)
    coding, _ = am.gen_coding(6, 3, 0.22, seed=5)
    rows = []
    for name, net, evidence in [("random", random_net, {}),
                                ("grid", grid, grid_evidence),
                                ("coding", coding, {})]:
        for algorithm, heuristic in runs:
            record, _ = run_instance(net, evidence, instance=name,
                                     algorithm=algorithm, heuristic=heuristic,
                                     ibound=2)
            rows.append(record.row(redact_time=True))
    record, _ = run_instance(random_net, {}, instance="random", ibound=8,
                             memory_limit_mb=1e-5)
    rows.append(record.row(redact_time=True))
    assert rows == GOLDEN_ROWS


def test_build_problem_rejects_unknown_heuristic():
    net = am.parse_uai(TWO_VAR_UAI)
    with pytest.raises(ValueError, match="unknown heuristic"):
        am.build_problem(net, am.decompose(net), 2, heuristic="nope")


def test_csv_row_formatting():
    rec = RunRecord(instance="x", n=3, e=0, w_star=2, h=2, algorithm="aobf",
                    heuristic="smb", ibound=4, seed=0, status="solved",
                    mpe_log10=-math.inf, mpe_prob=0.0, nodes=7, cache_hits=1,
                    cache_entries=5, time_s=0.25)
    row = rec.row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("mpe_log10")] == "-inf"
    assert row[CSV_COLUMNS.index("mpe_prob")] == "0"
    assert rec.row(redact_time=True)[CSV_COLUMNS.index("time_s")] == "-"


def test_solve_command_csv_output(two_var_files):
    uai, _ = two_var_files
    code, out = solve_stdout(["solve", "--input", str(uai), "--csv-header",
                              "--redact-time"])
    assert code == EXIT_SOLVED
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_COLUMNS
    rec = dict(zip(CSV_COLUMNS, rows[1]))
    assert rec["status"] == "solved"
    assert close(float(rec["mpe_prob"]), 0.54, tol=1e-10)
    assert rec["time_s"] == "-"


def test_solve_command_with_evidence(two_var_files):
    uai, evid = two_var_files
    code, out = solve_stdout(["solve", "--input", str(uai),
                              "--evidence", str(evid)])
    assert code == EXIT_SOLVED
    rec = dict(zip(CSV_COLUMNS, next(csv.reader(io.StringIO(out)))))
    assert rec["e"] == "1"
    assert close(float(rec["mpe_prob"]), 0.54, tol=1e-10)


def test_solve_rejects_evidence_naming_a_variable_twice(two_var_files, capsys):
    uai, evid = two_var_files
    evid.write_text("2 1 1 1 0\n")
    code, out = solve_stdout(["solve", "--input", str(uai),
                              "--evidence", str(evid)])
    assert code == EXIT_INPUT_ERROR and out == ""
    assert "error: evidence names variable 1 twice" in capsys.readouterr().err


def test_solve_command_missing_file_exit_code(tmp_path, capsys):
    code = main(["solve", "--input", str(tmp_path / "nope.uai")])
    assert code == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_solve_command_timeout_exit_code(two_var_files):
    uai, _ = two_var_files
    code, _ = solve_stdout(["solve", "--input", str(uai),
                            "--time-limit", "0"])
    assert code == EXIT_TIMEOUT


@pytest.mark.parametrize("argv, message", [
    (["--time-limit", "nan"], "time limit nan is NaN or negative"),
    (["--time-limit", "-1"], "time limit -1.0 is NaN or negative"),
    (["--memory-limit", "nan"], "memory limit nan is NaN, negative or too large"),
    (["--memory-limit", "-1"], "memory limit -1.0 is NaN, negative or too large"),
    (["--memory-limit", "inf"], "memory limit inf is NaN, negative or too large"),
    (["--memory-limit", "1e306"],
     "memory limit 1e+306 is NaN, negative or too large"),
], ids=["time nan", "time negative", "memory nan", "memory negative",
        "memory inf", "memory too large"])
def test_solve_rejects_bad_limits(two_var_files, capsys, argv, message):
    code, out = solve_stdout(["solve", "--input", str(two_var_files[0])] + argv)
    assert code == EXIT_INPUT_ERROR and out == ""
    assert f"error: {message}" in capsys.readouterr().err


def test_solve_infinite_time_limit_means_none(two_var_files):
    code, out = solve_stdout(["solve", "--input", str(two_var_files[0]),
                              "--time-limit", "inf"])
    assert code == EXIT_SOLVED
    assert dict(zip(CSV_COLUMNS, out.strip().split(",")))["status"] == "solved"


def test_solve_command_print_assignment(two_var_files, capsys):
    uai, _ = two_var_files
    code = main(["solve", "--input", str(uai), "--print-assignment"])
    assert code == EXIT_SOLVED
    err = capsys.readouterr().err
    assert "0=1" in err and "1=1" in err


def test_solve_command_scalar_factor(tmp_path):
    # TWO_VAR_UAI plus a factor over no variables, a constant 0.5
    uai = tmp_path / "scalar.uai"
    uai.write_text(TWO_VAR_UAI.replace("2\n1 0\n2 0 1\n", "3\n1 0\n2 0 1\n0\n")
                   + "\n1\n0.5\n")
    for algorithm in ("aobf", "aobb", "be", "brute"):
        with pytest.warns(UserWarning, match="unnormalized"):
            code, out = solve_stdout(["solve", "--input", str(uai),
                                      "--algorithm", algorithm])
        assert code == EXIT_SOLVED
        rec = dict(zip(CSV_COLUMNS, next(csv.reader(io.StringIO(out)))))
        assert close(float(rec["mpe_prob"]), 0.27, tol=1e-10)


def test_generate_writes_instance_and_sidecars(tmp_path):
    out = tmp_path / "inst"
    code = main(["generate", "--family", "grid", "--out", str(out),
                 "--n", "3", "--det-fraction", "0.5", "--num-evidence", "2",
                 "--seed", "9"])
    assert code == EXIT_SOLVED
    net = am.parse_uai((tmp_path / "inst.uai").read_text())
    assert len(net.variables) == 9
    evid = am.parse_evidence((tmp_path / "inst.uai.evid").read_text())
    assert len(evid) == 2
    spec = json.loads((tmp_path / "inst.json").read_text())
    assert spec == {"family": "grid",
                    "params": {"n": 3, "det_fraction": 0.5, "num_evidence": 2},
                    "seed": 9}


def test_generate_rejects_bad_params(tmp_path, capsys):
    code = main(["generate", "--family", "random", "--out",
                 str(tmp_path / "x"), "--n", "5", "--c", "4", "--p", "2"])
    assert code == EXIT_INPUT_ERROR


def test_generate_refuses_a_coding_net_that_does_not_read_back(
        tmp_path, capsys, recwarn):
    argv = ["generate", "--family", "coding", "--n", "6", "--p", "3"]
    assert main(argv + ["--sigma2", "0.1", "--out", str(tmp_path / "low")]) \
        == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "factor 12 has CPT entries above 1" in err and "--sigma2" in err
    assert list(tmp_path.iterdir()) == []
    assert main(argv + ["--out", str(tmp_path / "ok")]) == EXIT_SOLVED
    assert not [w for w in recwarn if "unnormalized" in str(w.message)]
    code, _ = solve_stdout(["solve", "--input", str(tmp_path / "ok.uai")])
    assert code == EXIT_SOLVED


def test_generate_then_solve_round_trip(tmp_path):
    out = tmp_path / "r"
    main(["generate", "--family", "random", "--out", str(out),
          "--n", "8", "--d", "2", "--c", "6", "--p", "2", "--seed", "3"])
    code, text = solve_stdout(["solve", "--input", str(out) + ".uai",
                               "--algorithm", "aobb"])
    assert code == EXIT_SOLVED
    rec = dict(zip(CSV_COLUMNS, next(csv.reader(io.StringIO(text)))))
    reparsed = am.parse_uai((tmp_path / "r.uai").read_text())
    exact = am.enumerate_mpe(reparsed).mpe_log
    assert close(float(rec["mpe_log10"]) * math.log(10), exact, tol=1e-6)


def _make_manifest(tmp_path, n_instances=2):
    instances = []
    for k in range(n_instances):
        prefix = tmp_path / f"b{k}"
        main(["generate", "--family", "random", "--out", str(prefix),
              "--n", "7", "--d", "2", "--c", "5", "--p", "2",
              "--seed", str(40 + k)])
        instances.append({"id": f"b{k}", "uai": str(prefix) + ".uai"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "instances": instances,
        "algorithms": ["aobf", "aobb"],
        "ibounds": [2, 3],
        "heuristic": "smb",
        "seed": 0,
    }))
    return manifest


def test_bench_runs_sweep_and_averages(tmp_path):
    manifest = _make_manifest(tmp_path)
    out_csv = tmp_path / "out.csv"
    plot = tmp_path / "plot.dat"
    code = main(["bench", "--manifest", str(manifest), "--out", str(out_csv),
                 "--plot-data", str(plot), "--redact-time"])
    assert code == EXIT_SOLVED
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    body = rows[1:]
    plain = [r for r in body if not r[0].startswith("AVERAGE")]
    avg = [r for r in body if r[0].startswith("AVERAGE")]
    assert len(plain) == 2 * 2 * 2  # instances x algorithms x ibounds
    assert len(avg) == 4
    # every solved cell agrees with enumeration
    for r in plain:
        rec = dict(zip(CSV_COLUMNS, r))
        assert rec["status"] == "solved"
        k = int(rec["instance"][1:])
        reparsed = am.parse_uai((tmp_path / f"b{k}.uai").read_text())
        exact = am.enumerate_mpe(reparsed).mpe_log
        assert abs(float(rec["mpe_log10"]) * math.log(10) - exact) <= 1e-9
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0].startswith("# i ")
    assert len(plot_lines) == 3  # header + one line per i-bound


def test_bench_deterministic_with_redacted_time(tmp_path):
    manifest = _make_manifest(tmp_path, n_instances=1)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["bench", "--manifest", str(manifest), "--out", str(a),
          "--redact-time"])
    main(["bench", "--manifest", str(manifest), "--out", str(b),
          "--redact-time"])
    assert a.read_bytes() == b.read_bytes()


def test_bench_parallel_matches_serial(tmp_path):
    manifest = _make_manifest(tmp_path, n_instances=2)
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    main(["bench", "--manifest", str(manifest), "--out", str(serial),
          "--redact-time"])
    main(["bench", "--manifest", str(manifest), "--out", str(parallel),
          "--redact-time", "--workers", "2"])
    assert serial.read_bytes() == parallel.read_bytes()


def test_bench_missing_manifest(tmp_path, capsys):
    code = main(["bench", "--manifest", str(tmp_path / "missing.json")])
    assert code == EXIT_INPUT_ERROR


BAD_INSTANCES = {
    "missing file": ({"uai": "missing.uai"}, "No such file"),
    "no uai path": ({"id": "x"}, 'has no "uai" path'),
    "not an object": ("bad.uai", 'has no "uai" path'),
    "malformed file": ({"uai": "bad.uai"}, "line 3: expected integer"),
    "uai not a string": ({"uai": 1}, '"uai" is not a string'),
    "evidence not a string": ({"uai": "ok.uai", "evidence": 0},
                              '"evidence" is not a string'),
    "id not a string": ({"uai": "ok.uai", "id": 5}, '"id" is not a string'),
}
BAD_MANIFESTS = {case: ({"instances": [entry], "ibounds": [2]}, message)
                 for case, (entry, message) in BAD_INSTANCES.items()}
OK_INSTANCES = [{"uai": "ok.uai"}]
BAD_MANIFESTS.update({
    "top level not an object": (OK_INSTANCES, "not a JSON object"),
    "instances not a list": ({"instances": 7}, '"instances" is not a list'),
    "algorithms not a list": ({"instances": OK_INSTANCES, "algorithms": "aobf"},
                              '"algorithms" is not a list'),
    "ibounds not a list": ({"instances": OK_INSTANCES, "ibounds": 3},
                           '"ibounds" is not a list'),
    "ibound not an int": ({"instances": OK_INSTANCES, "ibounds": [2.5]},
                          "i-bound 2.5 is not an integer"),
    "ibound a bool": ({"instances": OK_INSTANCES, "ibounds": [True]},
                      "i-bound True is not an integer"),
    "seed a string": ({"instances": OK_INSTANCES, "seed": "x"},
                      "\"seed\" 'x' is not an integer"),
    "seed a bool": ({"instances": OK_INSTANCES, "seed": False},
                    '"seed" False is not an integer'),
    "time_limit a string": ({"instances": OK_INSTANCES, "time_limit": "5"},
                            "\"time_limit\" '5' is not a number"),
    "time_limit a bool": ({"instances": OK_INSTANCES, "time_limit": True},
                          '"time_limit" True is not a number'),
    "memory_limit_mb a string": ({"instances": OK_INSTANCES,
                                  "memory_limit_mb": "1"},
                                 "\"memory_limit_mb\" '1' is not a number"),
    "time_limit NaN": ({"instances": OK_INSTANCES, "time_limit": math.nan},
                       "time limit nan is NaN or negative"),
    "time_limit negative": ({"instances": OK_INSTANCES, "time_limit": -1},
                            "time limit -1 is NaN or negative"),
    "memory_limit_mb NaN": ({"instances": OK_INSTANCES,
                             "memory_limit_mb": math.nan},
                            "memory limit nan is NaN, negative or too large"),
    "memory_limit_mb negative": ({"instances": OK_INSTANCES,
                                  "memory_limit_mb": -1},
                                 "memory limit -1 is NaN, negative or too large"),
    "memory_limit_mb Infinity": ({"instances": OK_INSTANCES,
                                  "memory_limit_mb": math.inf},
                                 "memory limit inf is NaN, negative or too large"),
    "heuristic a number": ({"instances": OK_INSTANCES, "heuristic": 3},
                           '"heuristic" 3 is not "smb" or "dmb"'),
    "heuristic unknown": ({"instances": OK_INSTANCES, "heuristic": "exact"},
                          "\"heuristic\" 'exact' is not \"smb\" or \"dmb\""),
})


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_bench_bad_instance_is_input_error(tmp_path, monkeypatch, capsys,
                                           case, workers):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.uai").write_text("BAYES\n2\n2 x\n")
    (tmp_path / "ok.uai").write_text(TWO_VAR_UAI)
    manifest, message = BAD_MANIFESTS[case]
    (tmp_path / "m.json").write_text(json.dumps(manifest))
    code = main(["bench", "--manifest", "m.json", "--workers", workers])
    assert code == EXIT_INPUT_ERROR
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["--no-caching"], EXIT_INPUT_ERROR),
    (["--ibound", "x"], EXIT_INPUT_ERROR),
    (["--help"], EXIT_SOLVED),
], ids=["unknown flag", "bad ibound", "help"])
def test_usage_errors_exit_input_error(two_var_files, argv, code):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--input", str(two_var_files[0])] + argv)
    assert info.value.code == code


@pytest.mark.parametrize("algorithm", ["aobf", "aobb", "brute", "be"])
def test_solve_rejects_nan_entry(tmp_path, capsys, algorithm):
    # a NaN CPT entry, and a scalar inf factor beside a one-variable CPT
    cases = [(TWO_VAR_UAI.replace("0.4 0.6", "nan 0.6"), 0),
             ("BAYES\n1\n2\n2\n1 0\n0\n\n2\n0.4 0.6\n\n1\ninf\n", 1)]
    for text, k in cases:
        uai = tmp_path / "bad.uai"
        uai.write_text(text)
        code = main(["solve", "--input", str(uai), "--algorithm", algorithm])
        assert code == EXIT_INPUT_ERROR
        assert (f"error: factor {k} has negative, NaN or infinite entries"
                in capsys.readouterr().err)
