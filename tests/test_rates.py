# Rate/MSE algebra tests cross-checked against the dense oracles in oracles.py.
from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_rng, random_instance, random_precoders
from rsmimo.channels import sample_estimation_channel
from rsmimo.solver import SolverConfig, run
from oracles import (
    dense_mse_blocks,
    fd_gradient,
    frozen_bundles,
    naive_f1,
    quadratic_expectation_mc,
    rates_via_generalized_eig,
    scalar_loop_f2,
)
from rsmimo.rates import (
    PrecoderSet,
    all_bundles,
    checked_real,
    expectation_quadratic,
    f1_from_bundles,
    instantaneous_rates,
    logsumexp,
    mse_at_filters,
    mse_bundle,
    objective_f1,
    objective_f2,
    weights,
)


def split_cat(X, K, rho):
    """Rebuild a PrecoderSet from the concatenated matrix [Pc, P_1..P_K]."""
    blocks = np.split(X, K + 1, axis=1)
    return PrecoderSet(Pc=blocks[0], Pp=list(blocks[1:]), rho=rho)


# ---------------------------------------------------------------- rates


def test_rates_zero_precoders_are_zero():
    rng = make_rng(0)
    H = [np.asarray(v) for v in random_instance(rng, 6, 2, 3, 0.0)[0]]
    Z = np.zeros((6, 2), dtype=complex)
    P = PrecoderSet(Pc=Z, Pp=[Z, Z, Z], rho=1.0)
    Rc, Rp, sr = instantaneous_rates(H, P, 1.0)
    assert Rc == [0.0] * 3 and Rp == [0.0] * 3 and sr == 0.0


def test_rates_single_user_common_only_closed_form():
    rng = make_rng(1)
    H, _ = random_instance(rng, 6, 2, 1, 0.0)
    Pc = np.asarray(np.linalg.qr(H[0])[0], dtype=complex) * 2.0
    P = PrecoderSet(Pc=Pc, Pp=[np.zeros((6, 2), dtype=complex)], rho=P0 if (P0 := float(np.sum(np.abs(Pc) ** 2))) else 1.0)
    Rc, Rp, sr = instantaneous_rates(H, P, 1.0)
    A = H[0].conj().T @ Pc
    direct = float(np.log2(np.real(np.linalg.det(np.eye(2) + A @ A.conj().T))))
    assert abs(Rc[0] - direct) < 1e-10
    assert Rp == [0.0]
    assert abs(sr - direct) < 1e-10


def test_rates_match_generalized_eig_oracle():
    rng = make_rng(2)
    for _ in range(10):
        H, _ = random_instance(rng, 8, 2, 4, 0.0)
        P = random_precoders(rng, 8, 2, 4, rho=100.0)
        Rc, Rp, sr = instantaneous_rates(H, P, 1.0)
        Rc_o, Rp_o, sr_o = rates_via_generalized_eig(H, P.Pc, P.Pp, 1.0)
        np.testing.assert_allclose(Rc, Rc_o, atol=1e-9)
        np.testing.assert_allclose(Rp, Rp_o, atol=1e-9)
        assert abs(sr - sr_o) < 1e-9
        assert all(r >= 0.0 for r in Rc + Rp)


def test_rates_validate_inputs():
    rng = make_rng(3)
    H, _ = random_instance(rng, 6, 2, 2, 0.0)
    P = random_precoders(rng, 6, 2, 3)
    with pytest.raises(ValueError):
        instantaneous_rates(H, P, 1.0)
    with pytest.raises(ValueError):
        instantaneous_rates(H, random_precoders(rng, 6, 2, 2), 0.0)


# ------------------------------------------------- error-term expectation


def test_expectation_quadratic_uniform_collapses_to_trace():
    rng = make_rng(4)
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    X = 0.5 * (X + X.conj().T)
    out = expectation_quadratic(np.full((5, 3), 0.3), X)
    np.testing.assert_allclose(out, 0.3 * np.trace(X).real * np.eye(3), atol=1e-12)


def test_expectation_quadratic_hand_case():
    # diag(variances^T diag(X)) computed by hand for a 2x2 example
    variances = np.array([[1.0, 2.0], [3.0, 4.0]])
    X = np.diag([5.0, 7.0]).astype(complex)
    out = expectation_quadratic(variances, X)
    np.testing.assert_allclose(out, np.diag([26.0, 38.0]), atol=1e-14)


def test_expectation_quadratic_matches_monte_carlo():
    rng = make_rng(5)
    variances = rng.uniform(0.05, 0.5, size=(4, 2))
    X = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    X = 0.5 * (X + X.conj().T)
    out = expectation_quadratic(variances, X)
    mean, se_re, se_im, _ = quadratic_expectation_mc(variances, X, draws=40_000, rng=rng)
    assert np.all(np.abs(np.real(mean) - np.real(out)) <= 3.0 * se_re + 1e-12)
    assert np.all(np.abs(np.imag(mean) - np.imag(out)) <= 3.0 * se_im + 1e-12)


def test_expectation_quadratic_validates_inputs():
    with pytest.raises(ValueError):
        expectation_quadratic(np.array([[-0.1]]), np.eye(1, dtype=complex))
    with pytest.raises(ValueError):
        expectation_quadratic(np.ones((3, 2)), np.eye(2, dtype=complex))


# ----------------------------------------------------------- MSE bundles


def receive_covariances(H_k, s2_k, P, sigma_n2):
    """F and G of one user, formed densely from their definitions."""
    eye = np.eye(H_k.shape[1])
    return [H_k.conj().T @ T @ T.conj().T @ H_k + (s2_k * np.vdot(T, T).real + sigma_n2) * eye
            for T in (P.full(), P.private())]


def test_mse_matrices_are_hermitian_contractions():
    rng = make_rng(6)
    H_hat, s2 = random_instance(rng)
    P = random_precoders(rng)
    for k in range(4):
        b = mse_bundle(H_hat[k], s2[k], P, 1.0, k)
        for Mz in (b.Mc_mmse, b.Mp_mmse):
            assert np.max(np.abs(Mz - Mz.conj().T)) <= 1e-10
            w = np.linalg.eigvalsh(Mz)
            assert np.all(w > 0.0) and np.all(w <= 1.0 + 1e-12)


def test_mse_bundle_matches_direct_inverse_route():
    rng = make_rng(7)
    H_hat, s2 = random_instance(rng)
    P = random_precoders(rng)
    for k in range(4):
        b = mse_bundle(H_hat[k], s2[k], P, 1.0, k)
        Sc = H_hat[k].conj().T @ P.Pc
        F, _ = receive_covariances(H_hat[k], s2[k], P, 1.0)
        Mc_raw = np.eye(2) - Sc.conj().T @ np.linalg.inv(F) @ Sc
        assert np.max(np.abs(Mc_raw - b.Mc_mmse)) < 1e-10


def test_mse_bundle_zero_common_precoder():
    rng = make_rng(8)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)
    P0 = random_precoders(rng, 6, 2, 2, rho=50.0)
    P = PrecoderSet(Pc=np.zeros((6, 2), dtype=complex), Pp=P0.Pp, rho=50.0)
    b = mse_bundle(H_hat[0], s2[0], P, 1.0, 0)
    np.testing.assert_allclose(b.Mc_mmse, np.eye(2), atol=1e-14)
    assert np.max(np.abs(b.Dc)) == 0.0


def test_mmse_inverse_identity_small():
    # inv(I - S^H F^-1 S) equals I + S^H (F - S S^H)^-1 S, built independently
    rng = make_rng(9)
    for _ in range(25):
        H_hat, s2 = random_instance(rng, 6, 2, 3, 0.2)
        P = random_precoders(rng, 6, 2, 3, rho=10.0 ** rng.uniform(0, 3))
        k = int(rng.integers(3))
        b = mse_bundle(H_hat[k], s2[k], P, 1.0, k)
        F, G = receive_covariances(H_hat[k], s2[k], P, 1.0)
        for S, cov, Mz in (
            (H_hat[k].conj().T @ P.Pc, F, b.Mc_mmse),
            (H_hat[k].conj().T @ P.Pp[k], G, b.Mp_mmse),
        ):
            sinr = S.conj().T @ np.linalg.inv(cov - S @ S.conj().T) @ S
            gap = np.max(np.abs(np.linalg.inv(Mz) - (np.eye(2) + sinr)))
            assert gap < 1e-8


def test_mse_at_filters_agrees_with_bundle_at_mmse_point():
    # two different code paths (scalar trace vs per-entry expectation) must meet
    rng = make_rng(10)
    H_hat, s2 = random_instance(rng)
    P = random_precoders(rng)
    for k in range(4):
        b = mse_bundle(H_hat[k], s2[k], P, 1.0, k)
        Mc, Mp = mse_at_filters(H_hat[k], s2[k], P, 1.0, k, b.Dc, b.Dp)
        assert np.max(np.abs(Mc - b.Mc_mmse)) < 1e-10
        assert np.max(np.abs(Mp - b.Mp_mmse)) < 1e-10


def test_mmse_filter_is_stationary_point():
    rng = make_rng(11)
    H_hat, s2 = random_instance(rng, 4, 2, 2, 0.1)
    P = random_precoders(rng, 4, 2, 2, rho=20.0)
    b = mse_bundle(H_hat[0], s2[0], P, 1.0, 0)

    def common_mse(D):
        Mc, _ = mse_at_filters(H_hat[0], s2[0], P, 1.0, 0, D, b.Dp)
        return checked_real(np.trace(Mc))

    def private_mse(D):
        _, Mp = mse_at_filters(H_hat[0], s2[0], P, 1.0, 0, b.Dc, D)
        return checked_real(np.trace(Mp))

    assert np.max(np.abs(fd_gradient(common_mse, b.Dc))) < 1e-6
    assert np.max(np.abs(fd_gradient(private_mse, b.Dp))) < 1e-6


@pytest.mark.parametrize(
    "M,N,K,snr_db,s2,near_rank_deficient",
    [
        (8, 2, 4, 60.0, 0.1, False),
        (8, 2, 4, 70.0, 0.1, False),
        (8, 2, 4, 20.0, 0.99, False),
        (8, 2, 4, 70.0, 0.99, False),
        (4, 2, 4, 20.0, 0.1, False),   # overloaded: K N > M
        (4, 2, 4, 70.0, 0.1, False),
        (8, 2, 4, 20.0, 0.1, True),
        (8, 2, 4, 60.0, 0.1, True),
    ],
)
def test_fused_bundles_match_dense_oracle(M, N, K, snr_db, s2, near_rank_deficient):
    # filters, MSE matrices, log-dets and inverses from the one augmented
    # Cholesky factor against inv/slogdet of the dense F and G, at random
    # precoders and at the solver's own design
    rho = 10.0 ** (snr_db / 10.0)

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    for seed in range(3):
        rng = make_rng(500 + seed)
        H_hat, sig = random_instance(rng, M, N, K, s2)
        if near_rank_deficient:
            H_hat[0][:, 1] = H_hat[0][:, 0] + 1e-7 * H_hat[0][:, 1]
        for P in (random_precoders(rng, M, N, K, rho=rho), run(H_hat, sig, rho, 1.0).P):
            b = all_bundles(H_hat, sig, P, 1.0)
            for k, ref in enumerate(dense_mse_blocks(H_hat, sig, P.Pc, P.Pp, 1.0)):
                for t in "cp":
                    assert ref[f"sign_{t}"] > 0.0
                    assert rel(getattr(b, f"D{t}")[k], ref[f"D{t}"]) < 1e-11
                    assert np.max(np.abs(getattr(b, f"M{t}_mmse")[k] - ref[f"M{t}_mmse"])) < 1e-11
                    assert abs(getattr(b, f"logdet_{t}")[k] - ref[f"logdet_{t}"]) < 1e-9
                    assert rel(getattr(b, f"M{t}_inv")[k], ref[f"M{t}_inv"]) < 1e-9


@pytest.mark.parametrize("M,N,K", [(8, 2, 4), (4, 2, 4), (2, 1, 6), (16, 4, 8), (6, 3, 2)])
def test_bundles_match_frozen_kernel(M, N, K):
    # the trimmed kernel (cached selector rows, no symmetrization of the Gram
    # matrix, in-place noise floor, derived MMSE matrices) is bit-equal to the
    # eager one on every field the bundle has (all the reference's but F and
    # G), stacked and per user
    for snr_db in range(0, 71, 10):
        rho = 10.0 ** (snr_db / 10.0)
        for s2 in (0.0, 0.1, 0.99):
            rng = make_rng(snr_db + int(100 * s2))
            H_hat, sig = random_instance(rng, M, N, K, s2)
            for P in (random_precoders(rng, M, N, K, rho=rho), random_precoders(rng, M, N, K, rho=rho, t=1.0)):
                ref = frozen_bundles(H_hat, sig, P.Pc, P.Pp, 1.0, range(K))
                del ref["F"], ref["G"]
                b = all_bundles(H_hat, sig, P, 1.0)
                assert all(np.array_equal(getattr(b, name), ref[name]) for name in ref)
                for k in range(K):
                    bk = mse_bundle(H_hat[k], sig[k], P, 1.0, k)
                    assert all(np.array_equal(getattr(bk, name), ref[name][k]) for name in ref)


def test_bundles_reject_mismatched_counts():
    rng = make_rng(512)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.1)
    P = random_precoders(rng, 6, 2, 3, rho=10.0)
    with pytest.raises(ValueError, match="2 channels, 3 private precoders and 2 error variances"):
        all_bundles(H_hat[:2], s2[:2], P, 1.0)
    with pytest.raises(ValueError, match="3 channels, 3 private precoders and 2 error variances"):
        all_bundles(H_hat, s2[:2], P, 1.0)


def test_bundles_raise_on_non_definite_covariance():
    # a negative noise power large enough to make F and G indefinite
    rng = make_rng(510)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.1)
    P = random_precoders(rng, 6, 2, 3, rho=10.0)
    with pytest.raises(np.linalg.LinAlgError):
        all_bundles(H_hat, s2, P, -1e4)


def test_bundles_raise_on_non_definite_error_matrix():
    # one user, no CSIT error and a noise power of -delta: F and G stay
    # positive definite, but G - Sp Sp^H = -delta I, so the private error
    # matrix (the Schur complement of the augmented system) is indefinite
    rng = make_rng(511)
    H_hat, _ = random_instance(rng, 4, 2, 1, 0.0)
    P = random_precoders(rng, 4, 2, 1, rho=10.0)
    Sp = H_hat[0].conj().T @ P.Pp[0]
    delta = 0.5 * float(np.linalg.eigvalsh(Sp @ Sp.conj().T)[0])
    Sfull = H_hat[0].conj().T @ P.full()
    assert np.linalg.eigvalsh(Sfull @ Sfull.conj().T)[0] > delta
    with pytest.raises(np.linalg.LinAlgError):
        all_bundles(H_hat, [0.0], P, -delta)


# ------------------------------------------------------------- objectives


def test_objective_f1_matches_naive_determinants():
    rng = make_rng(12)
    for _ in range(10):
        H_hat, s2 = random_instance(rng)
        P = random_precoders(rng, rho=10.0 ** rng.uniform(0, 3))
        a = objective_f1(H_hat, s2, P, 1.0)
        o = naive_f1(H_hat, s2, P.Pc, P.Pp, 1.0)
        assert abs(a - o) < 1e-10 * max(1.0, abs(o))


def test_smoothed_max_brackets_worst_user():
    rng = make_rng(13)
    H_hat, s2 = random_instance(rng)
    P = random_precoders(rng)
    bundles = all_bundles(H_hat, s2, P, 1.0)
    from rsmimo.rates import cholesky_logdet

    lc = [cholesky_logdet(b.Mc_mmse) for b in bundles]
    lp = sum(cholesky_logdet(b.Mp_mmse) for b in bundles)
    f1 = f1_from_bundles(bundles)
    # logsumexp sits between the max log-det and max + log K
    assert f1 >= max(lc) + lp - 1e-12
    assert f1 <= max(lc) + np.log(len(lc)) + lp + 1e-12


def test_weights_softmax_and_inverse_structure():
    rng = make_rng(14)
    H_hat, s2 = random_instance(rng)
    P = random_precoders(rng)
    bundles = all_bundles(H_hat, s2, P, 1.0)
    wb = weights(bundles)
    mu = np.array([w.mu for w in wb])
    assert abs(mu.sum() - 1.0) < 1e-12 and np.all(mu > 0)
    # softmax over log-dets means mu ratios equal determinant ratios
    det = np.array([np.real(np.linalg.det(b.Mc_mmse)) for b in bundles])
    np.testing.assert_allclose(mu / mu[0], det / det[0], rtol=1e-9)
    for b, w in zip(bundles, wb):
        np.testing.assert_allclose(w.Wp @ b.Mp_mmse, np.eye(2), atol=1e-9)
        np.testing.assert_allclose(w.Wc @ b.Mc_mmse, w.mu * np.eye(2), atol=1e-9)


def test_weights_single_user_put_all_mass_on_it():
    rng = make_rng(15)
    H_hat, s2 = random_instance(rng, 6, 2, 1, 0.1)
    wb = weights(all_bundles(H_hat, s2, random_precoders(rng, 6, 2, 1), 1.0))
    assert wb[0].mu == pytest.approx(1.0, abs=1e-14)


def test_objective_f2_zero_precoders_identity_weights():
    # with nothing transmitted every MSE matrix is the identity: f2 = 2 K N
    rng = make_rng(16)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.1)
    Z = np.zeros((6, 2), dtype=complex)
    P = PrecoderSet(Pc=Z, Pp=[Z] * 3, rho=1.0)
    D0 = np.zeros((2, 2), dtype=complex)  # filters act on the N-dim receive signal
    Mc_list, Mp_list = [], []
    for k in range(3):
        Mc, Mp = mse_at_filters(H_hat[k], s2[k], P, 1.0, k, D0, D0)
        Mc_list.append(Mc)
        Mp_list.append(Mp)
    from rsmimo.rates import WeightBundle

    wb = [WeightBundle(Wc=np.eye(2, dtype=complex), Wp=np.eye(2, dtype=complex), mu=1.0) for _ in range(3)]
    assert objective_f2(Mc_list, Mp_list, wb) == pytest.approx(2 * 3 * 2, abs=1e-12)


def test_objective_f2_matches_scalar_loop():
    rng = make_rng(17)
    H_hat, s2 = random_instance(rng)
    P = random_precoders(rng)
    bundles = all_bundles(H_hat, s2, P, 1.0)
    wb = weights(bundles)
    Mc_list = [b.Mc_mmse for b in bundles]
    Mp_list = [b.Mp_mmse for b in bundles]
    a = objective_f2(Mc_list, Mp_list, wb)
    o = scalar_loop_f2(Mc_list, Mp_list, [w.Wc for w in wb], [w.Wp for w in wb])
    assert abs(a - o) < 1e-10


def test_objective_f2_at_matched_point_is_constant():
    # plugging MMSE matrices into their own inverse-based weights gives N(K+1)
    rng = make_rng(18)
    for _ in range(5):
        H_hat, s2 = random_instance(rng)
        P = random_precoders(rng, rho=10.0 ** rng.uniform(0, 3))
        bundles = all_bundles(H_hat, s2, P, 1.0)
        wb = weights(bundles)
        val = objective_f2([b.Mc_mmse for b in bundles], [b.Mp_mmse for b in bundles], wb)
        assert val == pytest.approx(2 * (4 + 1), rel=1e-12)


def test_objective_f2_rejects_complex_residue_and_bad_lengths():
    from rsmimo.rates import WeightBundle

    wb = [WeightBundle(Wc=np.eye(2, dtype=complex), Wp=np.eye(2, dtype=complex), mu=1.0)]
    bad = (1.0 + 1e-3j) * np.eye(2)  # imaginary residue lands on the trace
    with pytest.raises(ValueError):
        objective_f2([bad], [np.eye(2)], wb)
    with pytest.raises(ValueError):
        objective_f2([np.eye(2)], [], wb)


def test_checked_real_accepts_tiny_residue():
    assert checked_real(3.0 + 1e-12j) == 3.0
    with pytest.raises(ValueError):
        checked_real(3.0 + 1e-6j)


# -------------------------------------------------------- gradient match


def test_surrogate_gradient_matches_objective_gradient():
    # FD gradients of the two objectives agree at the matched filter/weight point
    rng = make_rng(19)
    for _ in range(2):
        H_hat, s2 = random_instance(rng, 4, 2, 2, 0.1)
        P0 = random_precoders(rng, 4, 2, 2, rho=20.0)
        bundles = all_bundles(H_hat, s2, P0, 1.0)
        wb = weights(bundles)
        Dc = [b.Dc for b in bundles]
        Dp = [b.Dp for b in bundles]

        def f1_of(X):
            return objective_f1(H_hat, s2, split_cat(X, 2, 20.0), 1.0)

        def f2_of(X):
            P = split_cat(X, 2, 20.0)
            Mc_list, Mp_list = [], []
            for k in range(2):
                Mc, Mp = mse_at_filters(H_hat[k], s2[k], P, 1.0, k, Dc[k], Dp[k])
                Mc_list.append(Mc)
                Mp_list.append(Mp)
            return objective_f2(Mc_list, Mp_list, wb)

        X0 = P0.full()
        g1 = fd_gradient(f1_of, X0)
        g2 = fd_gradient(f2_of, X0)
        scale = max(1.0, float(np.linalg.norm(g1)))
        assert np.max(np.abs(g1 - g2)) < 1e-5 * scale


# ------------------------------------------------------------- utilities


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_logsumexp_matches_naive_and_bounds_max(xs):
    ref = float(np.log(np.sum(np.exp(np.asarray(xs, dtype=float)))))
    val = logsumexp(xs)
    assert abs(val - ref) < 1e-9 * max(1.0, abs(ref))
    assert val >= max(xs) - 1e-12
    assert val <= max(xs) + np.log(len(xs)) + 1e-12


# --------------------------------------------------------- array records


def _array_records():
    """One of each dataclass that holds arrays, by name."""
    rng = make_rng(17)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.1)
    P = random_precoders(rng, 6, 2, 3)
    bundles = all_bundles(H_hat, s2, P, 1.0)
    return {
        "PrecoderSet": P,
        "ChannelSet": sample_estimation_channel(6, 2, 3, s2, rng),
        "MseBundle": bundles,
        "WeightBundle": weights(bundles),
        "SolverState": run(H_hat, s2, 100.0, 1.0, SolverConfig(max_iters=3)),
    }


@pytest.mark.parametrize("name", ["PrecoderSet", "ChannelSet", "MseBundle", "WeightBundle", "SolverState"])
def test_array_records_compare_and_hash_by_identity(name):
    # field-wise == would ask numpy for the truth value of an array and raise,
    # and a field-wise hash would hash an ndarray
    record = _array_records()[name]
    assert type(record).__name__ == name
    twin = copy.deepcopy(record)  # equal fields held in distinct arrays
    assert record == record and record != twin and not record == twin
    assert hash(record) == hash(record) and len({record, twin, record}) == 2
