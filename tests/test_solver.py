# Solver tests: initialization, per-block closed forms, power split, full runs.
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from conftest import make_rng, random_instance, random_precoders
from oracles import fd_gradient, frozen_solve_p1, frozen_solve_p2, grid_scan_root, per_user_solver
from rsmimo.channels import sample_estimation_channel, sample_quantized_csit
from rsmimo.rates import (
    PrecoderSet,
    all_bundles,
    expectation_quadratic,
    instantaneous_rates,
    objective_f1,
    weights,
)
from rsmimo.solver import (
    T_CLAMP,
    CommonCollapse,
    SolverConfig,
    _block_system,
    initialize,
    run,
    solve_p1,
    solve_p2,
    solve_p3,
)


def random_filters(rng, M=6, N=2, K=2):
    """Random receive filters and positive definite weights, one pair per user."""
    Dp, Wp = [], []
    for _ in range(K):
        Dp.append(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
        X = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        Wp.append(X @ X.conj().T + 0.5 * np.eye(N))
    return Dp, Wp


# ---------------------------------------------------------- initialization


@pytest.mark.parametrize("M,N,K,s2,rho", [(8, 2, 4, 0.1, 100.0), (4, 2, 2, 0.3, 10.0), (6, 1, 3, 0.05, 1000.0)])
def test_initialize_power_is_exact(M, N, K, s2, rho):
    rng = make_rng(20)
    H_hat, _ = random_instance(rng, M, N, K, s2)
    P, t0 = initialize(H_hat, rho, s2)
    assert abs(P.power() - rho) <= 1e-12 * rho
    assert 0.0 < t0 <= 1.0


def test_initialize_split_arithmetic():
    # rho = 100, sigma_e2 = 0.1 puts 90% of the power on the common stream
    rng = make_rng(21)
    H_hat, _ = random_instance(rng, 8, 2, 4, 0.1)
    P, t0 = initialize(H_hat, 100.0, 0.1)
    assert t0 == pytest.approx(0.1, abs=1e-15)
    assert float(np.sum(np.abs(P.Pc) ** 2)) == pytest.approx(90.0, rel=1e-12)
    assert sum(float(np.sum(np.abs(Q) ** 2)) for Q in P.Pp) == pytest.approx(10.0, rel=1e-12)


def test_initialize_common_precoder_spans_dominant_directions():
    rng = make_rng(22)
    H_hat, _ = random_instance(rng, 8, 2, 4, 0.1)
    P, t0 = initialize(H_hat, 100.0, 0.1)
    left, _, _ = np.linalg.svd(np.concatenate(H_hat, axis=1), full_matrices=False)
    col_power = 100.0 * (1.0 - t0) / 2
    for j in range(2):
        overlap = abs(left[:, j].conj() @ P.Pc[:, j])
        assert overlap == pytest.approx(np.sqrt(col_power), rel=1e-10)


def test_initialize_perfect_csit_starts_all_private():
    rng = make_rng(23)
    H_hat, _ = random_instance(rng, 6, 2, 3, 0.0)
    P, t0 = initialize(H_hat, 100.0, 0.0)
    assert t0 == 1.0
    assert np.all(P.Pc == 0.0)
    # matched, column-normalized private precoders at equal power
    for k in range(3):
        assert float(np.sum(np.abs(P.Pp[k]) ** 2)) == pytest.approx(100.0 / 3, rel=1e-12)
        for j in range(2):
            h = H_hat[k][:, j] / np.linalg.norm(H_hat[k][:, j])
            cos = abs(h.conj() @ P.Pp[k][:, j]) / np.linalg.norm(P.Pp[k][:, j])
            assert cos == pytest.approx(1.0, abs=1e-12)


def test_initialize_low_snr_times_error_locks_all_private():
    rng = make_rng(24)
    H_hat, _ = random_instance(rng, 6, 2, 3, 0.5)
    _, t0 = initialize(H_hat, 2.0, 0.5)  # rho*sigma = 1 -> t = 1
    assert t0 == 1.0


def test_initialize_is_all_private_when_rho_sigma_underflows():
    rng = make_rng(24)
    H_hat, _ = random_instance(rng, 2, 1, 1, 0.1)
    _, t0 = initialize(H_hat, 0.4, 5e-324)  # 0.4 * 5e-324 rounds to 0
    assert t0 == 1.0


def test_initialize_rejects_degenerate_inputs():
    rng = make_rng(25)
    H_hat, _ = random_instance(rng, 6, 2, 2, 0.1)
    with pytest.raises(ValueError):
        initialize([h.conj().T for h in H_hat], 10.0, 0.1)  # M < N
    with pytest.raises(ValueError):
        initialize([np.zeros((6, 2), dtype=complex)] * 2, 10.0, 0.1)
    bad = [H_hat[0].copy(), H_hat[1].copy()]
    bad[1][:, 0] = 0.0
    with pytest.raises(ValueError):
        initialize(bad, 10.0, 0.1)


@pytest.mark.parametrize("norm", [1e-13, 1e-11])
def test_initialize_column_norm_guard_names_user_and_column(norm):
    # below 1e-12 a column has no direction to match; just above it the
    # matched private precoder still gets a unit-direction column
    rng = make_rng(26)
    H_hat, _ = random_instance(rng, 6, 2, 3, 0.1)
    H_hat[2][:, 1] *= norm / np.linalg.norm(H_hat[2][:, 1])
    if norm < 1e-12:
        with pytest.raises(ValueError, match=r"user 2: channel estimate column 1 has norm 1e-13 < 1e-12"):
            initialize(H_hat, 100.0, 0.1)
        return
    P, _ = initialize(H_hat, 100.0, 0.1)
    assert np.all(np.isfinite(P.full())) and abs(P.power() - 100.0) <= 1e-12 * 100.0
    direction = H_hat[2][:, 1] / norm
    cos = abs(direction.conj() @ P.Pp[2][:, 1]) / np.linalg.norm(P.Pp[2][:, 1])
    assert cos == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------ private block


def test_private_block_power_and_kkt():
    rng = make_rng(26)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.2)
    Dp, Wp = random_filters(rng, 6, 2, 2)
    rho, t, sn2 = 50.0, 0.6, 1.0
    Pp_cat, _, _ = solve_p1(H_hat, s2, Dp, Wp, rho, t, sn2)
    assert float(np.sum(np.abs(Pp_cat) ** 2)) == pytest.approx(rho * t, rel=1e-10)

    B, TW, tr_wdd = _block_system(H_hat, s2, Dp, Wp)
    V = np.concatenate(TW, axis=1)
    lam1 = sn2 * tr_wdd / (rho * t)
    assert lam1 > 0.0
    Pbar = np.linalg.solve(B + lam1 * np.eye(6), V)  # unnormalized stationary point

    def lagrangian(P):
        quad = np.trace(P.conj().T @ B @ P).real
        lin = 2.0 * np.trace(V.conj().T @ P).real
        return quad - lin + lam1 * float(np.sum(np.abs(P) ** 2))

    g = fd_gradient(lagrangian, Pbar, h=1e-5)
    scale = max(1.0, float(np.linalg.norm(V)))
    assert np.max(np.abs(g)) < 1e-8 * scale
    # the returned precoder is that stationary point rescaled to the power budget
    np.testing.assert_allclose(Pp_cat, np.sqrt(rho * t) * Pbar / np.linalg.norm(Pbar), atol=1e-10)


def test_private_block_rejects_degenerate_filters_and_bad_split():
    rng = make_rng(27)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.2)
    Dp, Wp = random_filters(rng, 6, 2, 2)
    zero = [np.zeros((2, 2), dtype=complex)] * 2
    with pytest.raises(ValueError):
        solve_p1(H_hat, s2, zero, Wp, 50.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        solve_p1(H_hat, s2, Dp, Wp, 50.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_p1(H_hat, s2, Dp, Wp, 50.0, 1.5, 1.0)


def test_error_term_scalar_shortcut_matches_diagonal_operator():
    # the sigma^2 tr(W D D^H) I regularizer must equal the per-entry expectation
    rng = make_rng(28)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.25)
    Dp, Wp = random_filters(rng, 6, 2, 3)
    B, _, _ = _block_system(H_hat, s2, Dp, Wp)
    omega_direct = np.zeros((6, 6), dtype=complex)
    quad_total = np.zeros((6, 6), dtype=complex)
    for k in range(3):
        X = Dp[k].conj().T @ Wp[k] @ Dp[k]
        omega_direct += expectation_quadratic(np.full((2, 6), s2[k]), X)
        scalar = s2[k] * np.trace(Wp[k] @ Dp[k] @ Dp[k].conj().T).real
        np.testing.assert_allclose(
            expectation_quadratic(np.full((2, 6), s2[k]), X), scalar * np.eye(6), atol=1e-12
        )
        T = H_hat[k] @ Dp[k].conj().T
        quad_total += T @ Wp[k] @ T.conj().T
    np.testing.assert_allclose(B, 0.5 * (quad_total + quad_total.conj().T) + omega_direct, atol=1e-12)


# ------------------------------------------------------------- common block


def test_common_block_power_and_kkt():
    rng = make_rng(29)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.2)
    Dc, Wc = random_filters(rng, 6, 2, 2)
    Dp, Wp = random_filters(rng, 6, 2, 2)
    rho, t, sn2 = 50.0, 0.6, 1.0
    Pp_cat, _, _ = solve_p1(H_hat, s2, Dp, Wp, rho, t, sn2)
    Pc, _, _ = solve_p2(H_hat, s2, Dc, Wc, Pp_cat, rho, t, sn2)
    assert float(np.sum(np.abs(Pc) ** 2)) == pytest.approx(rho * (1.0 - t), rel=1e-10)

    A, TW, tr_wdd = _block_system(H_hat, s2, Dc, Wc)
    U = TW.sum(axis=0)
    cross = np.trace(A @ Pp_cat @ Pp_cat.conj().T).real
    lam2 = (sn2 * tr_wdd + cross) / (rho * (1.0 - t))
    assert lam2 > 0.0
    Pbar = np.linalg.solve(A + lam2 * np.eye(6), U)

    def lagrangian(P):
        quad = np.trace(P.conj().T @ A @ P).real
        lin = 2.0 * np.trace(U.conj().T @ P).real
        return quad - lin + lam2 * float(np.sum(np.abs(P) ** 2))

    g = fd_gradient(lagrangian, Pbar, h=1e-5)
    scale = max(1.0, float(np.linalg.norm(U)))
    assert np.max(np.abs(g)) < 1e-8 * scale


def test_common_block_rejects_full_private_split():
    # t_star = 1 leaves no common power; run never asks for that design
    rng = make_rng(30)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.2)
    Dc, Wc = random_filters(rng, 6, 2, 2)
    with pytest.raises(ValueError, match="t_star"):
        solve_p2(H_hat, s2, Dc, Wc, np.zeros((6, 4), dtype=complex), 50.0, 1.0, 1.0)



def test_common_block_raises_when_its_direction_collapses():
    # a mirrored user cancels the first one's linear term, so U = 0 exactly
    rng = make_rng(31)
    H_hat, s2 = random_instance(rng, 6, 2, 1, 0.2)
    Dc, Wc = random_filters(rng, 6, 2, 1)
    Dp, Wp = random_filters(rng, 6, 2, 2)
    H2, s2 = [H_hat[0], -H_hat[0]], s2 * 2
    Pp_cat, _, _ = solve_p1(H2, s2, Dp, Wp, 50.0, 0.6, 1.0)
    with pytest.raises(CommonCollapse):
        solve_p2(H2, s2, Dc * 2, Wc * 2, Pp_cat, 50.0, 0.6, 1.0)


def test_run_continues_all_private_after_common_collapse(monkeypatch):
    rng = make_rng(32)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)
    rho = 50.0
    calls = []

    def collapse(*args):
        calls.append(args)
        raise CommonCollapse("synthetic collapse")

    monkeypatch.setattr("rsmimo.solver.solve_p2", collapse)
    state = run(H_hat, s2, rho, 1.0)
    assert len(calls) == 1
    assert state.boundary_hits == ((0, "sdma"),)
    assert state.P.power() == pytest.approx(rho, rel=1e-9)
    assert state.iterations > 1 and state.t == 1.0
    assert not state.P.Pc.any()

def test_run_skips_extrapolation_across_the_all_private_lock(monkeypatch):
    # the common direction collapses in sweep 3, the first of the second
    # cycle: that cycle mixes iterates with and without a common block and
    # must not extrapolate along them
    import rsmimo.solver as solver

    real_p2, extrapolate = solver.solve_p2, solver._extrapolate
    p2_calls, starts = [], []

    def collapsing(*args):
        p2_calls.append(1)
        if len(p2_calls) == 4:
            raise CommonCollapse("synthetic collapse")
        return real_p2(*args)

    def recording(P0, P1, P2, step_max):
        starts.append((P0.Pc.any(), not P2.Pc.any()))
        return extrapolate(P0, P1, P2, step_max)

    monkeypatch.setattr(solver, "solve_p2", collapsing)
    monkeypatch.setattr(solver, "_extrapolate", recording)
    rng = make_rng(32)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 12.0, 1.0)  # low SNR, so the all-private sweep is kept
    assert state.boundary_hits[-1] == (3, "sdma") and len(p2_calls) == 4
    assert (True, False) in starts and (False, True) in starts
    assert (True, True) not in starts
    assert state.t == 1.0 and not state.P.Pc.any()

# -------------------------------------------------------------- power split


def _split_inputs_from_state(H_hat, sigma_e2, state, sigma_n2=1.0):
    """Rebuild the split-search inputs at a solved iterate."""
    bundles = all_bundles(H_hat, sigma_e2, state.P, sigma_n2)
    wts = weights(bundles)
    B, TW_p, _ = _block_system(H_hat, sigma_e2, [b.Dp for b in bundles], [w.Wp for w in wts])
    A, TW_c, _ = _block_system(H_hat, sigma_e2, [b.Dc for b in bundles], [w.Wc for w in wts])
    V, U = np.concatenate(TW_p, axis=1), TW_c.sum(axis=0)
    Pc_norm = state.P.Pc / np.linalg.norm(state.P.Pc)
    Pp_cat = state.P.private()
    Pp_norm = Pp_cat / np.linalg.norm(Pp_cat)
    return U, V, A, B, Pc_norm, Pp_norm


def test_split_root_matches_grid_scan(converged_states):
    for H_hat, s2, rho, state in converged_states:
        if state.t >= 1.0:
            continue
        U, V, A, B, Pc_n, Pp_n = _split_inputs_from_state(H_hat, s2, state)
        t_star, flag = solve_p3(U, V, A, B, Pc_n, Pp_n, rho)
        a = np.trace(U.conj().T @ Pc_n).real
        b = np.trace(V.conj().T @ Pp_n).real
        c = rho * (np.trace((A + B) @ Pp_n @ Pp_n.conj().T).real - np.trace(A @ Pc_n @ Pc_n.conj().T).real)

        def deriv(t):
            return np.sqrt(rho / (1.0 - t)) * a - np.sqrt(rho / t) * b + c

        lo, hi = T_CLAMP, 1.0 - T_CLAMP
        t_ref = grid_scan_root(deriv, lo, hi, points=200_001)
        if flag == "":
            assert t_ref is not None
            assert abs(t_star - t_ref) < 1e-5  # grid spacing bounds the reference
            assert deriv(lo) < 0.0 < deriv(hi)
        else:
            assert t_ref is None


def test_split_root_symmetric_case_is_half():
    rng = make_rng(31)
    X = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    X /= np.linalg.norm(X)
    Z = np.zeros((6, 6), dtype=complex)
    t_star, flag = solve_p3(X, X, Z, Z, X, X, 25.0)
    assert flag == ""
    assert t_star == pytest.approx(0.5, abs=1e-8)


def test_split_root_boundary_flags():
    rng = make_rng(32)
    X = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    X /= np.linalg.norm(X)
    Z = np.zeros((6, 6), dtype=complex)
    t_star, flag = solve_p3(1e-12 * X, X, Z, Z, X, X, 25.0)
    assert flag == "high" and t_star == pytest.approx(1.0 - T_CLAMP)
    t_star, flag = solve_p3(X, 1e-12 * X, Z, Z, X, X, 25.0)
    assert flag == "low" and t_star == pytest.approx(T_CLAMP)
    with pytest.raises(ValueError):
        solve_p3(-X, X, Z, Z, X, X, 25.0)


# ---------------------------------------------------------------- full runs


def test_run_descends_and_holds_power(converged_states):
    for H_hat, s2, rho, state in converged_states:
        trace = np.array(state.objective_trace)
        assert np.all(np.diff(trace) <= 0.0)
        assert state.converged
        assert state.iterations <= 300
        assert abs(state.P.power() - rho) <= 1e-9 * rho
        assert 0.0 < state.t <= 1.0
        for it, flag in state.boundary_hits:
            assert isinstance(it, int) and flag in ("low", "high", "sdma")


def test_run_is_deterministic():
    rng = make_rng(33)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.15)
    a = run(H_hat, s2, 50.0, 1.0, SolverConfig(max_iters=60))
    b = run(H_hat, s2, 50.0, 1.0, SolverConfig(max_iters=60))
    assert a.objective_trace == b.objective_trace
    assert a.t == b.t and a.iterations == b.iterations
    np.testing.assert_array_equal(a.P.Pc, b.P.Pc)
    for x, y in zip(a.P.Pp, b.P.Pp):
        np.testing.assert_array_equal(x, y)


def test_run_force_sdma_pins_common_to_zero():
    rng = make_rng(34)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.15)
    state = run(H_hat, s2, 50.0, 1.0, SolverConfig(max_iters=80), force_sdma=True)
    assert np.all(state.P.Pc == 0.0)
    assert state.t == 1.0
    assert np.all(np.diff(state.objective_trace) <= 0.0)
    assert abs(state.P.power() - 50.0) <= 1e-9 * 50.0


def test_run_perfect_csit_locks_all_private_without_forcing():
    rng = make_rng(35)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.0)
    state = run(H_hat, s2, 100.0, 1.0, SolverConfig(max_iters=80))
    assert np.all(state.P.Pc == 0.0) and state.t == 1.0


def test_run_validates_inputs(monkeypatch):
    rng = make_rng(37)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)
    with pytest.raises(ValueError):
        run(H_hat, s2 + [0.1], 50.0, 1.0)
    with pytest.raises(ValueError):
        run(H_hat, s2, -1.0, 1.0)
    with pytest.raises(ValueError):
        run(H_hat, s2, 50.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        run(H_hat, s2, float("nan"), 1.0)
    bad = [h.copy() for h in H_hat]
    bad[0][0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run(bad, s2, 50.0, 1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5, -3.0])
def test_run_rejects_an_invalid_error_variance_naming_the_user(value):
    # NaN used to run to max_iters with a NaN trace, a negative value to
    # raise a bare LinAlgError from the first bundles
    rng = make_rng(38)
    H_hat, _ = random_instance(rng, 8, 2, 4, 0.1)
    with pytest.raises(ValueError, match=f"user 3: error variance must be finite and non-negative, got {value}"):
        run(H_hat, [0.1, 0.1, 0.1, value], 100.0, 1.0)


def test_run_wraps_in_sweep_failures_with_iteration_context(monkeypatch):
    rng = make_rng(37)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic factorization failure")

    monkeypatch.setattr("rsmimo.solver.weights", explode)
    with pytest.raises(RuntimeError, match="iteration 0"):
        run(H_hat, s2, 50.0, 1.0)


@pytest.mark.parametrize("rho", [100.0, 5.0])  # rate-splitting and all-private starts
def test_run_raises_on_a_nan_power_naming_the_iteration(monkeypatch, rho):
    # a NaN power must fail the power check, or the run discards every sweep
    # and returns its initial precoders at max_iters as if they were a design
    import rsmimo.solver as solver

    real_p1 = solver.solve_p1

    def nan_p1(*args):
        Pp_cat, B, V = real_p1(*args)
        return np.full_like(Pp_cat, np.nan), B, V

    monkeypatch.setattr(solver, "solve_p1", nan_p1)
    H_hat, s2 = random_instance(make_rng(39), 8, 2, 4, 0.1)
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="iteration 0: power constraint violated"):
        run(H_hat, s2, rho, 1.0, SolverConfig(max_iters=5))


@pytest.mark.parametrize("count", [0, 3])
def test_run_names_the_counts_of_a_short_error_variance_list(count):
    # an empty list gets the same count-naming error as a short one
    H_hat, _ = random_instance(make_rng(40), 8, 2, 4, 0.1)
    with pytest.raises(ValueError, match=f"4 channels, 4 private precoders and {count} error variances disagree"):
        run(H_hat, [0.1] * count, 100.0, 1.0)


def test_all_private_solution_is_stationary_on_power_sphere():
    # in the all-private regime the accepted fixed point must kill the
    # tangential objective gradient; tight obj_tol makes the residual small
    rng = make_rng(38)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.0)
    rho = 100.0
    state = run(H_hat, s2, rho, 1.0, SolverConfig(max_iters=2000, obj_tol=1e-9), force_sdma=True)
    Pp_cat = state.P.private()

    def objective_of(Xp):
        blocks = np.split(Xp, 4, axis=1)
        P = PrecoderSet(Pc=np.zeros((8, 2), dtype=complex), Pp=list(blocks), rho=rho)
        return objective_f1(H_hat, s2, P, 1.0)

    g = fd_gradient(objective_of, Pp_cat, h=1e-6)
    radial = np.vdot(Pp_cat, g).real / rho
    g_tan = g - radial * Pp_cat
    ratio = np.linalg.norm(g_tan) / np.linalg.norm(g)
    assert ratio <= 1e-3


def test_run_reuses_the_accepted_objective_bundles(monkeypatch):
    # the bundles behind an accepted objective value feed the next sweep's
    # private block: two bundle computations per sweep, one when all-private,
    # and one more at each extrapolated point
    calls = []

    def counting(*args):
        calls.append(args)
        return all_bundles(*args)

    monkeypatch.setattr("rsmimo.solver.all_bundles", counting)
    rng = make_rng(39)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0)
    assert state.t < 1.0 and not state.boundary_hits and state.extrapolations > 0
    assert len(calls) == 1 + 2 * state.iterations + state.extrapolations
    calls.clear()
    state = run(H_hat, s2, 100.0, 1.0, force_sdma=True)
    assert state.extrapolations > 0
    assert len(calls) == 1 + state.iterations + state.extrapolations
    # a run stopped at the cap counts only the extrapolated points it swept from
    H_hat, s2 = random_instance(make_rng(47), 8, 2, 4, 0.1)
    for cap in range(5, 13):
        calls.clear()
        state = run(H_hat, s2, 1e4, 1.0, SolverConfig(max_iters=cap))
        assert state.termination == "max_iters" and not any(flag == "sdma" for _, flag in state.boundary_hits)
        assert len(calls) == 1 + 2 * state.iterations + state.extrapolations, cap


@pytest.mark.parametrize("seed", [40, 41, 42])
@pytest.mark.parametrize("force_sdma", [False, True])
def test_run_matches_per_user_reference_loop(seed, force_sdma):
    rng = make_rng(seed)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0, force_sdma=force_sdma)
    trace, iterations, t, Pc, Pp = per_user_solver(H_hat, s2, 100.0, 1.0, force_sdma=force_sdma)
    assert state.iterations == iterations
    np.testing.assert_allclose(state.objective_trace, trace, rtol=0.0, atol=1e-10)
    assert state.t == pytest.approx(t, abs=1e-10)
    np.testing.assert_allclose(state.P.full(), np.concatenate([Pc] + list(Pp), axis=1), rtol=0.0, atol=1e-8)


def test_run_termination_tol():
    rng = make_rng(45)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0)
    assert state.termination == "tol" and state.converged
    assert state.iterations < SolverConfig().max_iters
    assert 0 < state.extrapolations_accepted <= state.extrapolations


def test_run_termination_overshoot(monkeypatch):
    # the second sweep, a plain one from an accepted iterate, raises the
    # objective: it is discarded and ends the run
    values = iter([10.0, 9.0, 9.5])
    monkeypatch.setattr("rsmimo.solver.f1_from_bundles", lambda bundles: next(values))
    rng = make_rng(46)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0)
    assert state.termination == "overshoot" and state.converged
    assert state.iterations == 2 and state.objective_trace == [10.0, 9.0]
    assert state.extrapolations == 0


def test_run_termination_max_iters():
    rng = make_rng(47)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 1e4, 1.0, SolverConfig(max_iters=5))
    assert state.termination == "max_iters" and not state.converged
    assert state.iterations == 5
    # the first cycle's step is P2 itself, so no sweep started from an
    # extrapolated point; the one planned after sweep 5 never ran
    assert state.extrapolations == 0


def test_run_keeps_p2_when_the_stabilized_point_rises(monkeypatch):
    # the first sweep started from an extrapolated point ends 1 nat higher
    # than it should: run must discard it and end on P2, the trace never rising
    import rsmimo.solver as solver

    extrapolate, f1 = solver._extrapolate, solver.f1_from_bundles
    pending, rejected = [], []

    def marking(*args):
        step = extrapolate(*args)
        if step is not None and step[1] is not None:
            pending.append(True)
        return step

    def rising(bundles):
        f = f1(bundles)
        if pending:
            pending.clear()
            rejected.append(f + 1.0)
            return f + 1.0
        return f

    monkeypatch.setattr(solver, "_extrapolate", marking)
    monkeypatch.setattr(solver, "f1_from_bundles", rising)
    rng = make_rng(48)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 1e4, 1.0)
    assert len(rejected) == 1 and rejected[0] > state.objective_trace[-1]
    assert state.termination == "overshoot" and state.converged
    assert state.extrapolations == 1 and state.extrapolations_accepted == 0
    assert state.iterations == len(state.objective_trace)  # every sweep but the last was kept
    assert np.all(np.diff(state.objective_trace) <= 0.0)
    assert objective_f1(H_hat, s2, state.P, 1.0) == pytest.approx(state.objective_trace[-1], abs=1e-12)
    assert abs(state.P.power() - 1e4) <= 1e-9 * 1e4


def test_squarem_sweep_budget_at_high_snr():
    # (8, 2, 4) with sigma_e2 = 0.1: the plain sweep needed a median of about
    # 75 sweeps at 40 dB and hit the 100-sweep cap at 60 dB
    def sweeps(snr_db, draws):
        out = []
        for d in range(draws):
            chans = sample_estimation_channel(8, 2, 4, [0.1] * 4, make_rng(500 + d))
            out.append(run(chans.H_hat, chans.sigma_e2, 10.0 ** (snr_db / 10.0), 1.0))
        return out

    assert np.median([st.iterations for st in sweeps(40.0, 12)]) <= 35
    assert all(st.converged for st in sweeps(60.0, 6))


# numpy.linalg entry points whose calls the sweep-cost test counts
LINALG_FUNCTIONS = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_power", "matrix_rank", "norm", "pinv", "qr", "slogdet", "solve", "svd",
)


@pytest.mark.parametrize("force_sdma", [False, True])
def test_linalg_calls_per_sweep(monkeypatch, force_sdma):
    # a proposed sweep makes 12 linear-algebra calls: one Cholesky and one
    # triangular inverse for each of its two bundles and each of the P1 and
    # P2 solves, plus four norms; an all-private sweep makes 5 (one bundle
    # and P1). Initialization adds one SVD, one norm and the first bundles,
    # and each extrapolated point one bundle (its step makes none). The
    # factors and inverses come from numpy.linalg's LAPACK gufuncs, called
    # directly, so the numpy.linalg entry points see only norms and the SVD.
    calls = Counter()

    def count(module, name, key):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for name in LINALG_FUNCTIONS:
        count(np.linalg, name, f"np.linalg.{name}")
    count(_umath_linalg, "cholesky_lo", "cholesky")
    count(_umath_linalg, "inv", "inv")
    rng = make_rng(43)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0, force_sdma=force_sdma)
    n, e = state.iterations, state.extrapolations
    assert n > 1 and e > 0 and not any(flag == "sdma" for _, flag in state.boundary_hits)
    if force_sdma:
        expected = {"np.linalg.svd": 1, "np.linalg.norm": 1 + n, "cholesky": 1 + 2 * n + e, "inv": 1 + 2 * n + e}
    else:
        expected = {"np.linalg.svd": 1, "np.linalg.norm": 1 + 4 * n, "cholesky": 1 + 4 * n + e, "inv": 1 + 4 * n + e}
    assert dict(calls) == expected  # so np.linalg.cholesky and np.linalg.inv are never called
    assert sum(calls.values()) == 4 + (5 if force_sdma else 12) * n + 2 * e


def test_run_names_the_iteration_of_a_non_definite_system(monkeypatch):
    # the second bundle computation (inside sweep 0) sees a negative noise
    # power: the augmented factorization raises LinAlgError and run reports
    # it as a RuntimeError naming the iteration
    calls = []

    def breaking(H_hat, sigma_e2, P, sigma_n2):
        calls.append(1)
        return all_bundles(H_hat, sigma_e2, P, sigma_n2 if len(calls) == 1 else -1e4)

    monkeypatch.setattr("rsmimo.solver.all_bundles", breaking)
    rng = make_rng(44)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    with pytest.raises(RuntimeError, match="iteration 0") as info:
        run(H_hat, s2, 100.0, 1.0)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@st.composite
def extreme_instances(draw):
    """Channels and rho from regimes the acceptance battery never visits:
    overloaded (K*N > M), 50-70 dB, sigma_e2 near 1, 1-14-bit codebooks."""
    M = draw(st.integers(min_value=2, max_value=8))
    N = draw(st.integers(min_value=1, max_value=M - 1))
    K = draw(st.integers(min_value=1, max_value=8))
    rho = 10.0 ** (draw(st.floats(min_value=-10.0, max_value=70.0)) / 10.0)
    rng = make_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        chans, _ = sample_quantized_csit(M, N, K, draw(st.integers(min_value=1, max_value=14)), rng)
    else:
        sigma_e2 = draw(st.one_of(
            st.sampled_from([0.0, 0.99, 0.999]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        ))
        chans = sample_estimation_channel(M, N, K, [sigma_e2] * K, rng)
    return chans, rho


@pytest.mark.parametrize("scheme", ["proposed", "rwmmse"])
@given(instance=extreme_instances())
@settings(max_examples=25, deadline=None)
def test_run_invariants_in_extreme_regimes(scheme, instance):
    chans, rho = instance
    state = run(chans.H_hat, chans.sigma_e2, rho, 1.0, force_sdma=scheme == "rwmmse")
    assert abs(state.P.power() - rho) <= 1e-9 * rho
    assert np.all(np.diff(state.objective_trace) <= 0.0)
    Rc, Rp, total = instantaneous_rates(chans.H, state.P, 1.0)
    outputs = [state.P.full().ravel(), state.objective_trace, [state.t], Rc, Rp, [total]]
    assert all(np.all(np.isfinite(x)) for x in outputs)
    assert min(Rc + Rp) >= 0.0


@pytest.mark.parametrize("M,N,K", [(8, 2, 4), (4, 2, 4), (2, 1, 6), (16, 4, 8), (6, 3, 2)])
def test_block_solves_match_frozen_kernels(M, N, K):
    # the closed-form P1 and P2 with their diagonal shifts made in place are
    # bit-equal to the np.eye forms, on the arrays run passes and on the
    # per-user lists the benchmark's replay passes
    for snr_db in range(0, 71, 10):
        rho = 10.0 ** (snr_db / 10.0)
        for s2 in (0.0, 0.1, 0.99):
            rng = make_rng(snr_db + int(100 * s2))
            H_hat, sig = random_instance(rng, M, N, K, s2)
            b = all_bundles(H_hat, sig, random_precoders(rng, M, N, K, rho=rho), 1.0)
            w = weights(b)
            for Dp, Wp in ((b.Dp, w.Wp), (list(b.Dp), list(w.Wp))):
                out = solve_p1(H_hat, sig, Dp, Wp, rho, 0.5, 1.0)
                ref = frozen_solve_p1(H_hat, sig, Dp, Wp, rho, 0.5, 1.0)
                assert all(np.array_equal(x, y) for x, y in zip(out, ref))
                out = solve_p2(H_hat, sig, b.Dc, w.Wc, out[0], rho, 0.5, 1.0)
                ref = frozen_solve_p2(H_hat, sig, b.Dc, w.Wc, ref[0], rho, 0.5, 1.0)
                assert all(np.array_equal(x, y) for x, y in zip(out, ref))
