# Every gate of the acceptance battery can fail: each test plants one fault
# in what a check calls and asserts that the check fails and says why. The
# battery's finite-difference gradient is pinned against its per-block loop.
from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from oracles import frozen_fd_gradient
from rsmimo import channels, selfcheck
from rsmimo.rates import objective_f1


@pytest.mark.parametrize("M, N, K", [(4, 2, 3), (3, 2, 1), (4, 1, 3)])
def test_fd_gradient_matches_the_per_block_loop(M, N, K):
    # the stacked bumps visit the coordinates in the loop's order and must
    # give the same bits, for a nonlinear objective of every block
    rng = np.random.default_rng(M * 100 + N * 10 + K)
    H_hat = [channels.complex_gaussian(rng, (M, N)) for _ in range(K)]
    P0 = selfcheck._random_precoders(rng, M, N, K, 31.6)

    def f1(P):
        return objective_f1(H_hat, [0.1] * K, P, 1.0)

    g = selfcheck._fd_gradient(f1, P0)
    assert g.shape == (M, N * (K + 1))
    assert g.tobytes() == frozen_fd_gradient(f1, P0).tobytes()


def test_descent_fails_on_a_rising_trace(monkeypatch):
    real = selfcheck.run

    def rising(*args, **kwargs):
        state = real(*args, **kwargs)
        return replace(state, objective_trace=[*state.objective_trace, state.objective_trace[-1] + 1e-6])

    monkeypatch.setattr(selfcheck, "run", rising)
    result = selfcheck.check_descent(runs=2)
    assert result.passed is False
    assert result.detail.startswith("increases=2, ")


def test_split_root_fails_when_the_derivative_keeps_its_sign(monkeypatch):
    # a P2 whose common filter term is far too large puts the root of the
    # split derivative below the clamp on every iterate
    real = selfcheck.solve_p2

    def oversized(*args):
        Pc, A, U = real(*args)
        return Pc, A, 1e6 * U

    monkeypatch.setattr(selfcheck, "solve_p2", oversized)
    result = selfcheck.check_split_root(iterates=2, grid_points=1000)
    assert result.passed is False
    assert result.detail.startswith("0/2 interior roots")


def test_split_root_fails_on_a_boundary_flag(monkeypatch):
    real = selfcheck.solve_p3
    monkeypatch.setattr(selfcheck, "solve_p3", lambda *args: (real(*args)[0], "high"))
    result = selfcheck.check_split_root(iterates=2, grid_points=1000)
    assert result.passed is False
    assert result.detail.startswith("2/2 interior roots, ")
    assert result.detail.endswith(", boundary flags 2")
    monkeypatch.setattr(selfcheck, "solve_p3", real)
    result = selfcheck.check_split_root(iterates=2, grid_points=1000)
    assert result.passed
    assert "boundary" not in result.detail


def test_quantization_fails_when_the_runner_up_is_picked(monkeypatch):
    def runner_up(H, book):
        distances = channels.chordal_distance(channels.dominant_subspace(H), book.entries)
        i = int(np.argsort(distances, kind="stable")[1])
        return i, book.entries[i], float(distances[i])

    monkeypatch.setattr(channels, "quantize_channel", runner_up)
    result = selfcheck.check_quantization(draws=5)
    assert result.passed is False
    assert result.detail.startswith("planted FAILED; ")


def test_determinism_fails_when_the_csv_text_differs(monkeypatch):
    real, calls = selfcheck.csv_text, itertools.count()
    monkeypatch.setattr(selfcheck, "csv_text", lambda result: real(result) + f"# call {next(calls)}\n")
    result = selfcheck.check_determinism()
    assert result.passed is False
    assert result.detail == "CSV outputs differ across worker counts"
    assert next(calls) == 3
