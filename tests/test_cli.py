# CLI tests: grid parsing, config resolution, artifacts, and exit codes.
from __future__ import annotations

import errno
import inspect
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsmimo
import rsmimo.selfcheck as selfcheck
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
        ("sweep", "--seed", "-1"),  # rejected before any work item runs
        ("sweep", "--m", "2", "--n", "2"),
        ("sweep", "--k", "0"),
        ("sweep", "--n", "0"),
        ("selftest", "--seed", "-1"),  # selftest takes no --out-dir
        ("selftest", "--workers", "0"),
        ("converge", "--snr-db", "0:10:20"),  # converge and cdf run at one point
        ("cdf", "--sigma-e2", "0.1,0.2"),
        ("converge",),  # the default SNR grid has 9 points
    ],
)
def test_invalid_usage_exits_2(argv, monkeypatch, tmp_path, capsys):
    def no_checks(*args, **kwargs):
        pytest.fail("the self-test battery ran")

    monkeypatch.setattr("rsmimo.selfcheck.run_all", no_checks)
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):  # a config file holding these keys
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(arg))
            argv[i] = str(path)
    if argv[0] != "selftest" and "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path)]
    assert run_cli(*argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,named",
    [
        (("sweep", "--seed", "-1"), "seed must be non-negative, got -1"),
        (("sweep", "--m", "2", "--n", "2"), "M must exceed N, got M=2 and N=2"),
        (("sweep", "--k", "0"), "N and K must be at least 1, got N=2 and K=0"),
        (("cdf", "--n", "0"), "N and K must be at least 1, got N=0 and K=4"),
        (("selftest", "--seed", "-1"), "--seed must be non-negative, got -1"),
        (("selftest", "--workers", "0"), "--workers must be at least 1, got 0"),
        (("converge", "--snr-db", "0:10:20"), "converge runs at one operating point; --snr-db holds 3 values"),
        (("cdf", "--snr-db", "10", "--sigma-e2", "0.1,0.2"), "cdf runs at one operating point; --sigma-e2 holds 2 values"),
        (("converge",), "converge runs at one operating point; --snr-db holds 9 values"),
    ],
)
def test_seed_and_dimensions_are_named_before_any_work_runs(argv, named, monkeypatch, tmp_path, capsys):
    def no_work(*args, **kwargs):
        pytest.fail("a work item or check ran")

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", no_work)
    monkeypatch.setattr("rsmimo.evaluate.draw_channels", no_work)
    monkeypatch.setattr("rsmimo.cli.draw_channels", no_work)
    monkeypatch.setattr("rsmimo.selfcheck.run_all", no_work)
    argv = list(argv) + ([] if argv[0] == "selftest" else ["--out-dir", str(tmp_path)])
    assert run_cli(*argv) == 2
    assert f"error: {named}" in capsys.readouterr().err


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


def test_config_file_int_for_the_float_key_is_named(tmp_path, capsys):
    # obj_tol must lie in (0, 0.1), which holds no integer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"obj_tol": 0}))
    assert run_cli("sweep", "--config", str(cfg), "--out-dir", str(tmp_path)) == 2
    assert "error: --config: 'obj_tol' must be a float, got 0" in capsys.readouterr().err


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


def test_converge_help_says_it_ignores_workers(capsys):
    assert run_cli("converge", "--help") == 0
    assert "converge ignores it and designs in one process" in " ".join(capsys.readouterr().out.split())


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


def test_sweep_says_when_a_cell_has_no_draws(tmp_path, capsys, monkeypatch):
    from rsmimo.baselines import design_precoders as real_design

    def failing_at_0_db(scheme, H_hat, sigma_e2, rho, *args):
        if scheme == "rwmmse" and rho == 1.0:
            raise RuntimeError("synthetic failure")
        return real_design(scheme, H_hat, sigma_e2, rho, *args)

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", failing_at_0_db)
    # 202 attempts and 1 failure stay under the 1% limit
    assert run_cli(*sweep_args(tmp_path, "--snr-db", "0:1:100", "--draws", "1")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "sigma_e2=0.1 snr_db=0 rwmmse: no draws (0 draws, 1 failed)" in lines
    assert "nan" not in "\n".join(lines)


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("command", ["sweep", "converge", "cdf"])
def test_format_selects_the_files(tmp_path, capsys, command, fmt):
    # each command writes <command>.csv, then <command>.json, as --format selects
    point = ("--m", "4", "--n", "2", "--k", "2", "--snr-db", "10", "--sigma-e2", "0.1", "--draws", "1")
    assert run_cli(command, *point, "--schemes", "proposed,mrt", "--format", fmt, "--out-dir", str(tmp_path)) == 0
    suffixes = ["csv", "json"] if fmt == "both" else [fmt]
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{command}.{s}" for s in suffixes]
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {tmp_path / command}.{s}" for s in suffixes]


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


def test_quantized_one_point_commands_ignore_the_sigma_e2_grid(tmp_path):
    # quantized mode draws no error variance, so, as in sweep, a sigma_e2
    # grid of any length leaves converge and cdf at their one SNR point
    point = ("--m", "4", "--n", "2", "--k", "2", "--snr-db", "10", "--draws", "2",
             "--csit", "quantized", "--bits", "3", "--schemes", "proposed,mrt", "--format", "json")
    outputs = {}
    for grid in ("0.1", "0.1,0.2"):
        out = tmp_path / grid
        out.mkdir()
        for command in ("converge", "cdf"):
            assert run_cli(command, *point, "--sigma-e2", grid, "--out-dir", str(out)) == 0
            outputs[grid, command] = json.loads((out / f"{command}.json").read_text())
    for command in ("converge", "cdf"):
        assert outputs["0.1", command] == outputs["0.1,0.2", command]
        assert outputs["0.1,0.2", command]["snr_db"] == 10.0
        assert outputs["0.1,0.2", command]["sigma_e2"] is None


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

    def fake_run_all(seed=0, quick=False, workers=1):
        calls["quick"] = quick
        return [CheckResult(name="x", passed=True, detail="", seconds=0.0)]

    monkeypatch.setattr("rsmimo.selfcheck.run_all", fake_run_all)
    assert run_cli("selftest", "--quick") == 0
    assert calls["quick"] is True
    assert "1/1 checks passed" in capsys.readouterr().out

    def fake_run_all_fail(seed=0, quick=False, workers=1):
        return [
            CheckResult(name="x", passed=True, detail="", seconds=0.0),
            CheckResult(name="y", passed=False, detail="bad", seconds=0.0),
        ]

    monkeypatch.setattr("rsmimo.selfcheck.run_all", fake_run_all_fail)
    assert run_cli("selftest") == 1


# check: (seed offset, the sizes run_all passes under --quick, the full sizes
# that are the check's own defaults and that a full run therefore leaves out);
# the rate-ordering check also gets the worker count (3 below)
BATTERY = {
    "check_mmse_inverse_identity": (0, {"instances": 200}, {"instances": 1000}),
    "check_quadratic_expectation": (1, {"draws": 50_000}, {"draws": 200_000}),
    "check_gradient_equality": (2, {"points": 3}, {"points": 10}),
    "check_descent": (3, {"runs": 25}, {"runs": 100}),
    "check_split_root": (4, {"iterates": 20, "grid_points": 200_000}, {"iterates": 100, "grid_points": 1_000_000}),
    "check_power_conservation": (5, {"runs": 10}, {"runs": 50}),
    "check_rate_ordering": (6, {"draws": 40}, {"draws": 200}),
    "check_perfect_csit": (7, {"pairs": 10}, {"pairs": 50}),
    "check_quantization": (8, {"draws": 50}, {"draws": 200}),
    "check_determinism": (9, {}, {}),
}


@pytest.mark.parametrize("quick", [True, False])
def test_run_all_runs_the_ten_checks_at_their_sizes_and_prints_a_line_each(monkeypatch, capsys, quick):
    calls = []
    for i, (name, (offset, quick_sizes, full_sizes)) in enumerate(BATTERY.items()):
        # at seed 0 the battery runs each check at its own default seed, and a
        # full run at its own default sizes
        parameters = inspect.signature(getattr(selfcheck, name)).parameters
        assert parameters["seed"].default == offset and set(quick_sizes) == set(full_sizes)
        assert {k: parameters[k].default for k in full_sizes} == full_sizes

        def stub(*args, name=name, i=i, **kwargs):
            calls.append((name, args, kwargs))
            return CheckResult(name=f"stub-{i}", passed=i % 3 > 0, detail=f"detail {i}", seconds=0.5 * i)

        monkeypatch.setattr(selfcheck, name, stub)
    results = selfcheck.run_all(seed=100, quick=quick, workers=3)
    workers = {"check_rate_ordering": {"workers": 3}}
    assert calls == [(name, (100 + offset,), {**(q if quick else {}), **workers.get(name, {})})
                     for name, (offset, q, _) in BATTERY.items()]
    assert [r.name for r in results] == [f"stub-{i}" for i in range(10)]
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
    assert lines == [f"{'PASS' if i % 3 else 'FAIL'}  {'stub-%d' % i:<24} detail {i}  [{i / 2:.1f}s]" for i in range(10)]


def test_a_check_is_timed_and_fails_past_its_budget():
    @selfcheck._check("stub", seconds=0.0)
    def over_budget(seed=0):
        time.sleep(0.01)
        return True, "body detail"

    result = over_budget()
    assert (result.name, result.passed, result.detail) == ("stub", False, "body detail")
    assert 0.01 <= result.seconds < 60.0
    assert selfcheck._check("stub")(lambda: (True, ""))().passed  # no budget: the body decides


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
pooled = evaluate.csv_text(evaluate.run_experiment(replace(cfg, workers=2)))
assert not {"concurrent.futures", "multiprocessing"} & set(sys.modules)
assert pooled == serial
"""


def test_design_stack_imports_without_pool_parser_or_git():
    # the design path, in-process sweeps and the CLI module load no process
    # pool, argument parser or subprocess machinery; a run with workers forks
    # them without loading a pool and writes the same bytes
    env = dict(os.environ, PYTHONPATH=str(Path(rsmimo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)  # reaps a zombie, so a worker left unreaped shows
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("fails", [False, True], ids=["success", "design-failure"])
def test_sweep_reaps_its_workers_and_runs_git_only_to_write(tmp_path, monkeypatch, fails):
    # git runs once, for the version stamp of the files, after the workers
    # are reaped; a run that fails before writing starts no git process
    from rsmimo import evaluate

    real, started = subprocess.run, []

    def spy(argv, **kwargs):
        started.append((argv[0], _no_child_left()))
        return real(argv, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    evaluate.version_string.cache_clear()
    if fails:
        def broken(*args):
            raise ValueError("planted failure")

        monkeypatch.setattr(evaluate, "draw_channels", broken)
    assert run_cli(*sweep_args(tmp_path, "--workers", "2")) == (2 if fails else 0)
    assert started == ([] if fails else [("git", True)])
    assert _no_child_left()


def test_a_dead_worker_exits_3_as_a_worker_failure(tmp_path, monkeypatch, capsys):
    from rsmimo import evaluate

    real, parent = evaluate.draw_channels, os.getpid()

    def dying(*args):
        if os.getpid() != parent:  # the share-1 worker
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(evaluate, "draw_channels", dying)
    assert run_cli(*sweep_args(tmp_path, "--workers", "2")) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"worker failure: worker of share 1 of 2 \(pid \d+\) was killed by signal 9 before sending its outputs\n", err
    ), err
    assert list(tmp_path.iterdir()) == []
    assert _no_child_left()


def test_a_failed_fork_exits_2_naming_the_os_error(tmp_path, monkeypatch, capsys):
    def no_process():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert run_cli(*sweep_args(tmp_path, "--workers", "2")) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno {errno.EAGAIN}] cannot fork the worker of share 1 of 2: Resource temporarily unavailable\n"
    assert list(tmp_path.iterdir()) == []
    assert _no_child_left()


def test_ctrl_c_leaves_no_worker_or_git_process(tmp_path):
    # Ctrl-C reaches the whole foreground process group: the sweep and its
    # forked workers (git runs only once the files are written); once the
    # sweep has exited, no process of its group is left
    env = dict(os.environ, PYTHONPATH=str(Path(rsmimo.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-m", "rsmimo.cli", "sweep", "--snr-db", "0:10:40", "--draws", "200",
            "--workers", "2", "--out-dir", str(tmp_path)]
    proc = subprocess.Popen(argv, env=env, start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")

    try:
        deadline = time.monotonic() + 60
        while not children.read_text() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert children.read_text(), "the sweep forked no worker within 60 s"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert "KeyboardInterrupt" in err
    assert not (tmp_path / "sweep.csv").exists()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
