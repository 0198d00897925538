# CLI tests: grid parsing, config resolution, artifacts, and exit codes.
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmimo
from rsmimo.cli import main, parse_grid
from rsmimo.selfcheck import CheckResult


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------ grid parsing


def test_parse_grid_forms():
    assert parse_grid("0:5:40") == tuple(float(x) for x in range(0, 45, 5))
    assert parse_grid("7") == (7.0,)
    assert parse_grid("0.05,0.1,0.2") == (0.05, 0.1, 0.2)
    assert parse_grid([1, 2]) == (1.0, 2.0)
    assert parse_grid("10:10:10") == (10.0,)


@pytest.mark.parametrize("bad", ["1:0:5", "5:1:4", "a:b:c", "1:2:3:4", "abc", "1;3"])
def test_parse_grid_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_grid(bad)


@given(
    st.floats(min_value=-100.0, max_value=100.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.integers(min_value=1, max_value=50),
)
@settings(max_examples=80, deadline=None)
def test_parse_grid_inclusive_endpoint(start, step, n):
    stop = start + step * (n - 1)
    grid = parse_grid(f"{start!r}:{step!r}:{stop!r}")
    assert len(grid) == n
    assert grid[0] == pytest.approx(start, abs=1e-12)
    assert grid[-1] == pytest.approx(stop, rel=1e-9, abs=1e-9)


# -------------------------------------------------------------- exit codes


def test_help_and_usage_exit_codes(capsys):
    assert run_cli("--help") == 0
    capsys.readouterr()
    assert run_cli() == 2  # missing subcommand is an argparse error


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--snr-db", "bad:grid"),
        ("sweep", "--schemes", "zf"),
        ("sweep", "--schemes", "rbd"),  # unknown scheme
        ("sweep", "--out-dir", "/nonexistent/dir"),
        ("sweep", "--csit", "quantized", "--bits", "0"),
        ("sweep", "--config", "/nonexistent/config.json"),
        ("sweep", "--draws", "0"),
        ("sweep", "--snr-db", "nan"),
        ("sweep", "--snr-db", "0:inf:10"),
        ("sweep", "--snr-db", "0:1:inf"),
        ("sweep", "--config", {"snr_db": "NaN"}),
        ("sweep", "--config", {"snr_db": [None]}),
        ("converge", "--snr-db", ","),  # empty grid
        ("converge", "--schemes", "rbd"),  # converge validates the sweep keys
        ("sweep", "--config", {"timing": "false"}),  # values must match the flag's type
        ("sweep", "--config", {"draws": 1.9}),
        ("sweep", "--config", {"draws": True}),
        ("sweep", "--config", {"format": "xml"}),
        ("sweep", "--config", {"sigma_e2": [False]}),  # list elements are checked too
        ("sweep", "--config", {"snr_db": [True]}),
        ("sweep", "--config", {"snr_db": ["10"]}),
        ("sweep", "--config", {"schemes": ["mrt", 1]}),
        ("converge", "--schemes", "mrt", "--draws", "1", "--snr-db", "20"),  # nothing to trace
        ("sweep", "--schemes", "proposed,mrt,proposed", "--draws", "3"),  # a scheme named twice
        ("sweep", "--snr-db", "4000", "--draws", "1", "--schemes", "mrt"),  # rho overflows
    ],
)
def test_invalid_usage_exits_2(argv, tmp_path, capsys):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):  # a config file holding these keys
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path)]
    assert run_cli(*argv) == 2
    assert "error:" in capsys.readouterr().err


def test_numerical_failure_exits_3(monkeypatch, tmp_path, capsys):
    def boom(cfg):
        raise RuntimeError("too many design failures")

    monkeypatch.setattr("rsmimo.cli.run_experiment", boom)
    code = run_cli("sweep", "--out-dir", str(tmp_path))
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"draws": 2, "antennas": 8}))
    assert run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2


def test_bisection_width_is_not_an_option(tmp_path, capsys):
    # the power-split bisection width is a solver constant
    assert run_cli("sweep", "--bisect-tol", "1e-8", "--out-dir", str(tmp_path)) == 2
    assert "unrecognized arguments: --bisect-tol" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bisect_tol": 1e-8}))
    assert run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    assert "unknown keys ['bisect_tol']" in capsys.readouterr().err


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("5")
    assert run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    assert "JSON object" in capsys.readouterr().err


# ---------------------------------------------------------------- commands


def sweep_args(tmp_path, *extra):
    return (
        "sweep",
        "--m", "4", "--n", "1", "--k", "2",
        "--snr-db", "0,10",
        "--sigma-e2", "0.1",
        "--draws", "3",
        "--schemes", "mrt,rwmmse",
        "--max-iters", "40",
        "--no-timing",
        "--out-dir", str(tmp_path),
        *extra,
    )


def test_sweep_writes_expected_artifacts(tmp_path, capsys):
    assert run_cli(*sweep_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "draws" in out
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    assert csv_path.is_file() and json_path.is_file()
    lines = csv_path.read_text().splitlines()
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2 * 3 * 2  # snr points x draws x schemes
    assert all(row.endswith("0.000000") for row in rows)  # timing disabled
    payload = json.loads(json_path.read_text())
    assert {c["scheme"] for c in payload["cells"]} == {"mrt", "rwmmse"}


def test_sweep_format_csv_only(tmp_path):
    assert run_cli(*sweep_args(tmp_path, "--format", "csv")) == 0
    assert (tmp_path / "sweep.csv").is_file()
    assert not (tmp_path / "sweep.json").exists()


def test_sweep_identical_bytes_across_workers(tmp_path):
    d1, d2 = tmp_path / "w1", tmp_path / "w2"
    d1.mkdir(), d2.mkdir()
    assert run_cli(*sweep_args(d1, "--workers", "1")) == 0
    assert run_cli(*sweep_args(d2, "--workers", "2")) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()
    assert (d1 / "sweep.json").read_bytes() == (d2 / "sweep.json").read_bytes()


def test_config_file_resolution_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "m": 4, "n": 1, "k": 2,
                "snr_db": "5",
                "sigma_e2": "0.2",
                "draws": 2,
                "schemes": "mrt",
                "out_dir": str(tmp_path),
                "timing": False,
            }
        )
    )
    assert run_cli("sweep", "--config", str(cfg)) == 0
    rows = [
        l for l in (tmp_path / "sweep.csv").read_text().splitlines() if not l.startswith("#")
    ][1:]
    assert len(rows) == 2
    # an explicit flag beats the config file
    assert run_cli("sweep", "--config", str(cfg), "--draws", "3") == 0
    rows = [
        l for l in (tmp_path / "sweep.csv").read_text().splitlines() if not l.startswith("#")
    ][1:]
    assert len(rows) == 3


def test_config_file_accepts_json_lists(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "m": 4, "n": 1, "k": 2, "snr_db": [0, 10.0], "sigma_e2": [0.2],
        "draws": 2, "schemes": ["mrt"], "timing": False,
    }))
    assert run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path)) == 0
    cells = json.loads((tmp_path / "sweep.json").read_text())["cells"]
    assert [(c["scheme"], c["snr_db"], c["draws_used"]) for c in cells] == [("mrt", 0.0, 2), ("mrt", 10.0, 2)]


def test_converge_writes_monotone_traces(tmp_path, capsys):
    code = run_cli(
        "converge",
        "--m", "4", "--n", "2", "--k", "2",
        "--snr-db", "20",
        "--sigma-e2", "0.1",
        "--draws", "2",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "median" in capsys.readouterr().out
    payload = json.loads((tmp_path / "converge.json").read_text())
    assert len(payload["objective_traces_nats"]) == 2
    for tr in payload["objective_traces_nats"]:
        assert np.all(np.diff(tr) <= 0.0)
    lines = (tmp_path / "converge.csv").read_text().splitlines()
    assert lines[0] == "run,iteration,objective_nats"
    assert len(lines) == 1 + sum(len(t) for t in payload["objective_traces_nats"])


@pytest.mark.parametrize("csit", [(), ("--csit", "quantized", "--bits", "4")])
def test_converge_iterations_match_sweep_proposed_rows(tmp_path, csit):
    # converge and sweep draw the channels of one operating point the same way
    point = (
        "--m", "4", "--n", "2", "--k", "2",
        "--snr-db", "20",
        "--sigma-e2", "0.1",
        "--draws", "4",
        "--seed", "11",
        *csit,
        "--out-dir", str(tmp_path),
    )
    assert run_cli("sweep", *point, "--no-timing", "--format", "csv") == 0
    assert run_cli("converge", *point, "--format", "json") == 0
    lines = [l for l in (tmp_path / "sweep.csv").read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    proposed = sorted(
        (int(r["draw"]), int(r["iterations"])) for r in rows if r["scheme"] == "proposed"
    )
    converge = json.loads((tmp_path / "converge.json").read_text())["iterations"]
    assert [d for d, _ in proposed] == list(range(4))
    assert converge == [it for _, it in proposed]


def test_cdf_outputs_distribution(tmp_path, capsys):
    code = run_cli(
        "cdf",
        "--m", "4", "--n", "1", "--k", "2",
        "--snr-db", "10",
        "--sigma-e2", "0.1",
        "--draws", "5",
        "--schemes", "mrt",
        "--out-dir", str(tmp_path),
    )
    assert code == 0
    assert "median" in capsys.readouterr().out
    lines = (tmp_path / "cdf.csv").read_text().splitlines()
    assert lines[0] == "scheme,sum_rate_bits,prob"
    probs = [float(l.split(",")[2]) for l in lines[1:]]
    rates = [float(l.split(",")[1]) for l in lines[1:]]
    assert len(probs) == 5
    assert probs == sorted(probs) and probs[-1] == 1.0
    assert rates == sorted(rates)
    payload = json.loads((tmp_path / "cdf.json").read_text())
    assert set(payload["summary"]["mrt"]) == {"median", "p10", "p90"}


def test_selftest_exit_codes(monkeypatch, capsys):
    calls = {}

    def fake_run_all(seed=0, quick=False, report=print, workers=1):
        calls["quick"] = quick
        return [CheckResult(name="x", passed=True, detail="", seconds=0.0)]

    monkeypatch.setattr("rsmimo.selfcheck.run_all", fake_run_all)
    assert run_cli("selftest", "--quick") == 0
    assert calls["quick"] is True
    assert "1/1 checks passed" in capsys.readouterr().out

    def fake_run_all_fail(seed=0, quick=False, report=print, workers=1):
        return [
            CheckResult(name="x", passed=True, detail="", seconds=0.0),
            CheckResult(name="y", passed=False, detail="bad", seconds=0.0),
        ]

    monkeypatch.setattr("rsmimo.selfcheck.run_all", fake_run_all_fail)
    assert run_cli("selftest") == 1


def test_importing_the_cli_leaves_the_acceptance_battery_unloaded():
    env = dict(os.environ, PYTHONPATH=str(Path(rsmimo.__file__).parents[1]))
    code = "import sys, rsmimo.cli; sys.exit('rsmimo.selfcheck' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


IMPORT_HYGIENE = """
import sys
from dataclasses import replace
from rsmimo import baselines, channels, cli, evaluate, rates, solver
heavy = {"concurrent.futures", "multiprocessing", "argparse", "subprocess"}
assert not heavy & set(sys.modules), sorted(heavy & set(sys.modules))
cfg = evaluate.ExperimentConfig(M=4, N=1, K=2, snr_db_grid=(0.0, 20.0), sigma_e2_grid=(0.2,), draws=3,
                                schemes=("proposed", "rwmmse", "mrt"), seed=11, timing=False)
serial = evaluate.csv_text(evaluate.run_experiment(cfg))
assert "concurrent.futures" not in sys.modules
pooled = evaluate.csv_text(evaluate.run_experiment(replace(cfg, workers=2)))
assert "concurrent.futures" in sys.modules
assert pooled == serial
"""


def test_design_stack_imports_without_pool_parser_or_git():
    # the design path, in-process sweeps and the CLI module load no process
    # pool, argument parser or subprocess machinery; a pooled run loads the
    # pool itself and writes the same bytes
    env = dict(os.environ, PYTHONPATH=str(Path(rsmimo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
