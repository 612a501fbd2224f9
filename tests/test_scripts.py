"""Smoke tests: both experiment scripts run end to end on tiny inputs."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ibound_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    load_script("ibound_sweep").main(["--n", "10", "--seeds", "0:2",
                                      "--ibounds", "2", "3", "--out", str(out)])
    with out.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "w_star", "h", "algorithm", "ibound", "mpe_log",
                       "nodes", "cache_hits", "time_s"]
    assert len(rows) == 1 + 2 * 2 * 2  # seeds x i-bounds x algorithms
    assert f"wrote {out}" in capsys.readouterr().out


def test_coding_noise_sweep_prints_table(capsys):
    load_script("coding_noise_sweep").main(["--n", "4", "--parity", "2",
                                            "--batch", "2", "--sigma2", "0.1"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["sigma^2", "BER", "word", "errors", "mean",
                                "nodes"]
    assert len(lines) == 2 and lines[1].split()[0] == "0.1"
