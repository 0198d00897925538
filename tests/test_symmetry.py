# Symmetries of the design problem: a unitary rotation of the transmit space
# and a relabelling of the users change neither the design's path nor its
# rate; a unitary rotation of one receiver's antennas leaves the objective at
# fixed precoders unchanged. The start is not receive-basis invariant (README,
# "Symmetries"), so a receive rotation is checked on the objective only.
from __future__ import annotations

import numpy as np
import pytest

import rsmimo.evaluate as evaluate
from conftest import make_rng, random_precoders
from rsmimo.channels import ChannelSet, complex_gaussian, sample_estimation_channel
from rsmimo.evaluate import ExperimentConfig, run_experiment
from rsmimo.rates import instantaneous_rates, objective_f1
from rsmimo.solver import run

M, N, K = 8, 2, 4
SIGMA_E2 = [0.05, 0.1, 0.15, 0.2]  # unequal, so a relabelling moves them too


def haar_unitary(rng, n):
    """A Haar-distributed n x n unitary: the QR of a complex Gaussian matrix
    with the phases of R's diagonal moved into Q."""
    Q, R = np.linalg.qr(complex_gaussian(rng, (n, n)))
    d = R.diagonal()
    return Q * (d / abs(d))


def transformed(chans, Q=None, order=None, R=None):
    """The channel set with the transmit space rotated by Q (H_k -> Q H_k),
    the users relabelled by order and receiver k's antennas rotated by R[k]
    (H_k -> H_k R_k); None leaves that part alone."""
    order = range(len(chans.H)) if order is None else order

    def move(X):
        return [(X[k] if Q is None else Q @ X[k]) @ (np.eye(N) if R is None else R[k]) for k in order]

    return ChannelSet(H=move(chans.H), H_hat=move(chans.H_hat), E=move(chans.E),
                      sigma_e2=[chans.sigma_e2[k] for k in order])


def design(chans, rho, scheme):
    state = run(chans.H_hat, chans.sigma_e2, rho, 1.0, force_sdma=scheme == "rwmmse")
    return state, instantaneous_rates(chans.H, state.P, 1.0)[2]


def draws(seed, count=6):
    rng = make_rng(seed)
    return rng, [sample_estimation_channel(M, N, K, SIGMA_E2, rng) for _ in range(count)]


@pytest.mark.parametrize("snr_db", [20.0, 50.0])
@pytest.mark.parametrize("scheme", ["proposed", "rwmmse"])
@pytest.mark.parametrize("kind", ["transmit rotation", "user permutation"])
def test_design_path_and_rate_are_invariant(kind, scheme, snr_db):
    rho = 10.0 ** (snr_db / 10.0)
    rng, chans_list = draws(int(snr_db))
    for chans in chans_list:
        if kind == "transmit rotation":
            moved = transformed(chans, Q=haar_unitary(rng, M))
        else:
            moved = transformed(chans, order=rng.permutation(K))
        (a, rate_a), (b, rate_b) = design(chans, rho, scheme), design(moved, rho, scheme)
        assert (b.iterations, b.termination) == (a.iterations, a.termination)
        np.testing.assert_allclose(b.objective_trace, a.objective_trace, rtol=1e-10, atol=0.0)
        assert rate_b == pytest.approx(rate_a, abs=1e-8)


def test_receive_rotation_leaves_the_objective_at_fixed_precoders():
    rng, chans_list = draws(7)
    for chans in chans_list:
        moved = transformed(chans, R=[haar_unitary(rng, N) for _ in range(K)])
        for P in (random_precoders(rng, M, N, K, rho=100.0), design(chans, 100.0, "proposed")[0].P):
            f = objective_f1(chans.H_hat, chans.sigma_e2, P, 1.0)
            assert objective_f1(moved.H_hat, moved.sigma_e2, P, 1.0) == pytest.approx(f, rel=1e-12)


def test_sweep_records_are_invariant_under_transmit_rotation_and_user_permutation(monkeypatch):
    # the same symmetries through evaluate: every draw of a small sweep is
    # rotated and relabelled before it is designed and scored
    cfg = ExperimentConfig(M=M, N=N, K=K, snr_db_grid=(20.0, 50.0), sigma_e2_grid=(0.1,), draws=2,
                           schemes=("proposed", "rwmmse"), seed=5, workers=1, timing=False)
    plain = run_experiment(cfg).records
    draw_channels, rng = evaluate.draw_channels, make_rng(8)

    def moved_draw(*args):
        chans, rho = draw_channels(*args)
        return transformed(chans, Q=haar_unitary(rng, M), order=rng.permutation(K)), rho

    monkeypatch.setattr(evaluate, "draw_channels", moved_draw)
    moved = run_experiment(cfg).records
    assert len(moved) == len(plain) == 8
    for a, b in zip(plain, moved):
        key = ("scheme", "snr_db", "draw", "iterations", "boundary_hits")
        assert [getattr(b, name) for name in key] == [getattr(a, name) for name in key]
        assert b.sum_rate_bits == pytest.approx(a.sum_rate_bits, abs=1e-8)
        assert b.t_final == pytest.approx(a.t_final, abs=1e-10)
