# Solver tests: initialization, per-block closed forms, power split, full runs.
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from conftest import make_rng, random_instance
from oracles import fd_gradient, grid_scan_root, per_user_solver
from rsmimo.rates import PrecoderSet, all_bundles, expectation_quadratic, objective_f1, weights
from rsmimo.solver import (
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


def test_common_block_zeroes_out_at_full_private_split():
    rng = make_rng(30)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.2)
    Dc, Wc = random_filters(rng, 6, 2, 2)
    Pc, _, _ = solve_p2(H_hat, s2, Dc, Wc, np.zeros((6, 4), dtype=complex), 50.0, 1.0, 1.0)
    assert np.all(Pc == 0.0)



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
    cfg = SolverConfig()
    for H_hat, s2, rho, state in converged_states:
        if state.t >= 1.0:
            continue
        U, V, A, B, Pc_n, Pp_n = _split_inputs_from_state(H_hat, s2, state)
        t_star, flag = solve_p3(U, V, A, B, Pc_n, Pp_n, rho, cfg)
        a = np.trace(U.conj().T @ Pc_n).real
        b = np.trace(V.conj().T @ Pp_n).real
        c = rho * (np.trace((A + B) @ Pp_n @ Pp_n.conj().T).real - np.trace(A @ Pc_n @ Pc_n.conj().T).real)

        def deriv(t):
            return np.sqrt(rho / (1.0 - t)) * a - np.sqrt(rho / t) * b + c

        lo, hi = cfg.t_clamp, 1.0 - cfg.t_clamp
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
    t_star, flag = solve_p3(X, X, Z, Z, X, X, 25.0, SolverConfig())
    assert flag == ""
    assert t_star == pytest.approx(0.5, abs=1e-8)


def test_split_root_boundary_flags():
    rng = make_rng(32)
    X = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    X /= np.linalg.norm(X)
    Z = np.zeros((6, 6), dtype=complex)
    cfg = SolverConfig()
    t_star, flag = solve_p3(1e-12 * X, X, Z, Z, X, X, 25.0, cfg)
    assert flag == "high" and t_star == pytest.approx(1.0 - cfg.t_clamp)
    t_star, flag = solve_p3(X, 1e-12 * X, Z, Z, X, X, 25.0, cfg)
    assert flag == "low" and t_star == pytest.approx(cfg.t_clamp)
    with pytest.raises(ValueError):
        solve_p3(-X, X, Z, Z, X, X, 25.0, cfg)


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


def test_run_wraps_in_sweep_failures_with_iteration_context(monkeypatch):
    rng = make_rng(37)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)

    def explode(*args, **kwargs):
        raise np.linalg.LinAlgError("synthetic factorization failure")

    monkeypatch.setattr("rsmimo.solver.weights", explode)
    with pytest.raises(RuntimeError, match="iteration 0"):
        run(H_hat, s2, 50.0, 1.0)


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
    # private block: two bundle computations per sweep, one when all-private
    calls = []

    def counting(*args):
        calls.append(args)
        return all_bundles(*args)

    monkeypatch.setattr("rsmimo.solver.all_bundles", counting)
    rng = make_rng(39)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0)
    assert state.t < 1.0 and not state.boundary_hits
    assert len(calls) == 1 + 2 * state.iterations
    calls.clear()
    state = run(H_hat, s2, 100.0, 1.0, force_sdma=True)
    assert len(calls) == 1 + state.iterations


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


# numpy.linalg entry points whose calls the sweep-cost test counts
LINALG_FUNCTIONS = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_power", "matrix_rank", "norm", "pinv", "qr", "slogdet", "solve", "svd",
)


@pytest.mark.parametrize("force_sdma", [False, True])
def test_linalg_calls_per_sweep(monkeypatch, force_sdma):
    # a proposed sweep makes 12 numpy.linalg calls: one Cholesky and one
    # triangular inverse for each of its two bundles and each of the P1 and
    # P2 solves, plus four norms; an all-private sweep makes 5 (one bundle
    # and P1). Initialization adds one SVD, two norms and the first bundles.
    calls = Counter()
    for name in LINALG_FUNCTIONS:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rng = make_rng(43)
    H_hat, s2 = random_instance(rng, 8, 2, 4, 0.1)
    state = run(H_hat, s2, 100.0, 1.0, force_sdma=force_sdma)
    n = state.iterations
    assert n > 1 and not any(flag == "sdma" for _, flag in state.boundary_hits)
    if force_sdma:
        expected = {"svd": 1, "norm": 2 + n, "cholesky": 1 + 2 * n, "inv": 1 + 2 * n}
    else:
        expected = {"svd": 1, "norm": 2 + 4 * n, "cholesky": 1 + 4 * n, "inv": 1 + 4 * n}
    assert dict(calls) == expected
    assert sum(calls.values()) == 5 + (5 if force_sdma else 12) * n


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
