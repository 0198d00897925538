# Acceptance battery: the ten primary checks at full sizes and tolerances.
# Each test emits one PASS/FAIL line (terminal summary), asserts the result
# and compares the check's detail with tests/golden/battery.json.
from __future__ import annotations

import json
import os

import numpy as np
import pytest

from conftest import record_verdict
from golden_runs import BATTERY
from rsmimo import selfcheck
from rsmimo.evaluate import ExperimentConfig, csv_text, run_experiment
from rsmimo.solver import SolverConfig

WORKERS = min(4, os.cpu_count() or 1)
GOLDEN_DETAILS = json.loads(BATTERY.read_text())


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    record_verdict(f"{status} {result.name}: {result.detail} [{result.seconds:.1f}s]")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == GOLDEN_DETAILS[result.name], (
        f"{result.name}: detail moved from {GOLDEN_DETAILS[result.name]!r}; "
        "after a deliberate change of numbers, rerun tests/golden_runs.py"
    )
    return result


def test_mmse_inverse_identity():
    # inverse MMSE matrix equals I + generalized SINR on 1000 random instances
    r = _report(selfcheck.check_mmse_inverse_identity(seed=0, instances=1000))
    assert r.seconds < 10.0


def test_error_expectation_matches_monte_carlo():
    # closed-form E[Y^H X Y] within 3 standard errors over 2e5 draws
    _report(selfcheck.check_quadratic_expectation(seed=1, draws=200_000))


def test_objective_gradients_agree():
    # FD gradients of the design objective and its weighted-MSE surrogate
    # coincide at matched filters/weights, 10 random points
    r = _report(selfcheck.check_gradient_equality(seed=2, points=10))
    assert r.seconds < 60.0


def test_descent_and_convergence_speed():
    # 100 runs at M=8,N=2,K=4, 20 dB, sigma_e2=0.1: monotone traces, >=95%
    # converged within 50 iterations, median within 3x of ten iterations
    _report(selfcheck.check_descent(seed=3, runs=100))


def test_power_split_root_oracle():
    # bisection root vs dense grid scan within 2e-6 on 100 solver iterates,
    # with the endpoint derivative signs bracketing the root
    _report(selfcheck.check_split_root(seed=4, iterates=100, grid_points=1_000_000))


def test_power_conservation():
    # every emitted precoder set holds |power - rho| <= 1e-9 rho; the solver
    # additionally enforces this on every accepted iterate at runtime
    _report(selfcheck.check_power_conservation(seed=5, runs=50))


def test_rate_ordering_across_snr():
    # sweep at M=8,N=2,K=4, sigma_e2=0.1, 200 paired draws: splitting beats
    # the all-private design at 30/40 dB, the all-private curve saturates,
    # and matched filtering is lowest at 30 dB
    r = _report(selfcheck.check_rate_ordering(seed=6, draws=200, workers=WORKERS))
    assert r.seconds < 900.0


def test_perfect_csit_reduces_to_all_private():
    # with exact CSIT the split design and the all-private design coincide
    _report(selfcheck.check_perfect_csit(seed=7, pairs=50))


def test_quantized_feedback_behavior():
    # planted codewords quantize losslessly; distortion shrinks with bits
    _report(selfcheck.check_quantization(seed=8, draws=200))


def test_csv_byte_determinism(tmp_path):
    # identical config and seed give byte-identical CSV for any worker count
    _report(selfcheck.check_determinism(seed=9))
    cfg = dict(
        M=4,
        N=1,
        K=2,
        snr_db_grid=(0.0, 10.0),
        sigma_e2_grid=(0.1,),
        draws=6,
        schemes=("proposed", "rwmmse", "mrt"),
        seed=11,
        solver=SolverConfig(max_iters=60),
        timing=False,
    )
    paths = []
    for workers in (1, 2, 3):
        result = run_experiment(ExperimentConfig(workers=workers, **cfg))
        path = tmp_path / f"w{workers}.csv"
        path.write_text(csv_text(result), newline="\n")
        paths.append(path)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    record_verdict("PASS csv-file-bytes: identical across workers 1/2/3")
