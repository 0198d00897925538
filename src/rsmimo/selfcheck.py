"""Built-in verification suite: numerical identities, descent, and harness checks.

Each check is a pure function of its seed and sizes, returning a CheckResult;
run_all executes the whole battery and prints one pass/fail line per check.
The weighted-MSE surrogate that the gradient check compares the design
objective with lives here too, since nothing else uses it.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import channels
from .evaluate import ExperimentConfig, csv_text, run_experiment
from .rates import (
    PrecoderSet,
    all_bundles,
    checked_real,
    herm,
    instantaneous_rates,
    objective_f1,
    side_by_side,
    weights,
)
from .solver import T_CLAMP, SolverConfig, run, solve_p1, solve_p2, solve_p3


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name, seconds=math.inf):
    """Decorator: a check body that returns (passed, detail) becomes a check
    that returns the CheckResult called name. The body is timed, and a check
    whose body runs for seconds or longer fails, whatever the body returned."""

    def decorate(body):
        @functools.wraps(body)
        def check(*args, **kwargs):
            start = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            elapsed = time.perf_counter() - start
            return CheckResult(name, bool(passed) and elapsed < seconds, detail, elapsed)

        return check

    return decorate


def expectation_quadratic(variances, X):
    """E[Y^H X Y] for Y with independent zero-mean entries of given variances.

    variances holds the per-entry variance of Y (shape M x N); the result is
    the N x N diagonal matrix diag(variances^T diag(X)). A uniform variance
    collapses to sigma^2 tr(X) I.
    """
    variances = np.asarray(variances, dtype=float)
    if np.any(variances < 0):
        raise ValueError("variances must be non-negative")
    if X.shape[0] != X.shape[1] or X.shape[0] != variances.shape[0]:
        raise ValueError("shape mismatch between variances and X")
    return np.diag(variances.T @ np.diagonal(X))


def mse_at_filters(H_hat_k, sigma_e2_k, P: PrecoderSet, sigma_n2, k, Dc, Dp):
    """Conditional-expected MSE matrices for user k at arbitrary receive filters.

    The CSIT-error expectation is resolved through expectation_quadratic, so
    the quadratic filter terms reuse exactly the F/G noise-floor structure.
    A stream whose filter is None, as a bundle holds for a stream it skipped,
    gets None for its MSE matrix.
    """
    M, N = H_hat_k.shape
    eye = np.eye(N)
    var = np.full((M, N), float(sigma_e2_k))
    Pfull = P.full()
    Ppriv = P.private()
    Tf = Pfull @ Pfull.conj().T
    Tp = Ppriv @ Ppriv.conj().T
    F = herm(H_hat_k.conj().T @ Tf @ H_hat_k) + expectation_quadratic(var, Tf) + sigma_n2 * eye
    G = herm(H_hat_k.conj().T @ Tp @ H_hat_k) + expectation_quadratic(var, Tp) + sigma_n2 * eye
    Sc = H_hat_k.conj().T @ P.Pc
    Sp = H_hat_k.conj().T @ P.Pp[k]
    Mc = None if Dc is None else herm(eye - Dc @ Sc - Sc.conj().T @ Dc.conj().T + Dc @ F @ Dc.conj().T)
    Mp = None if Dp is None else herm(eye - Dp @ Sp - Sp.conj().T @ Dp.conj().T + Dp @ G @ Dp.conj().T)
    return Mc, Mp


def objective_f2(Mc_list, Mp_list, weight_bundles) -> float:
    """Weighted MSE sum over users with the weights treated as constants.

    A term whose weight or MSE matrix is None, a stream skipped at all-private
    precoders, adds nothing.
    """
    weight_bundles = list(weight_bundles)  # a stacked bundle iterates per user
    if not (len(Mc_list) == len(Mp_list) == len(weight_bundles)):
        raise ValueError("per-user list lengths disagree")
    total = 0.0 + 0.0j
    for Mc, Mp, w in zip(Mc_list, Mp_list, weight_bundles):
        total += sum(np.trace(W @ M) for W, M in ((w.Wc, Mc), (w.Wp, Mp)) if W is not None and M is not None)
    return checked_real(total)


def _random_precoders(rng, M, N, K, rho) -> PrecoderSet:
    Pc = channels.complex_gaussian(rng, (M, N))
    Pp = [channels.complex_gaussian(rng, (M, N)) for _ in range(K)]
    raw = PrecoderSet(Pc=Pc, Pp=Pp, rho=float(rho))
    s = np.sqrt(rho / raw.power())
    return PrecoderSet(Pc=s * Pc, Pp=[s * Q for Q in Pp], rho=float(rho))


@_check("mmse-inverse-identity", seconds=10.0)
def check_mmse_inverse_identity(seed=0, instances=1000):
    """Inverse MMSE matrix equals identity plus the generalized SINR matrix."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    N = 2
    for _ in range(instances):
        M = int(rng.choice([4, 8]))
        K = int(rng.choice([2, 4]))
        sig2 = float(rng.choice([0.0, 0.1, 0.3]))
        rho = 10.0 ** rng.uniform(0.0, 4.0)
        H_hat = [channels.complex_gaussian(rng, (M, N)) for _ in range(K)]
        P = _random_precoders(rng, M, N, K, rho)
        k = int(rng.integers(K))
        b = all_bundles(H_hat, [sig2] * K, P, 1.0)[k]
        Hh = H_hat[k]
        Ppriv = P.private()
        Sc = Hh.conj().T @ P.Pc
        Jc = Hh.conj().T @ Ppriv @ Ppriv.conj().T @ Hh + (sig2 * P.power() + 1.0) * np.eye(N)
        sinr_c = Sc.conj().T @ np.linalg.solve(Jc, Sc)
        Po = side_by_side(np.delete(P.Pp, k, axis=0))
        tr_priv = float(np.sum(np.abs(Ppriv) ** 2))
        Sp = Hh.conj().T @ P.Pp[k]
        Jp = Hh.conj().T @ Po @ Po.conj().T @ Hh + (sig2 * tr_priv + 1.0) * np.eye(N)
        sinr_p = Sp.conj().T @ np.linalg.solve(Jp, Sp)
        for Mz, sinr in ((b.Mc_mmse, sinr_c), (b.Mp_mmse, sinr_p)):
            lhs = np.linalg.inv(Mz)
            rel = np.linalg.norm(lhs - np.eye(N) - sinr) / np.linalg.norm(lhs)
            worst = max(worst, float(rel))
    return worst <= 1e-8, f"worst rel err {worst:.2e} over {instances} instances"


@_check("quadratic-expectation")
def check_quadratic_expectation(seed=1, draws=200_000):
    """Monte Carlo mean of Y^H X Y matches the closed-form diagonal expectation."""
    rng = np.random.default_rng(seed)
    M, N = 4, 2
    ok = True
    details = []
    for label, variances in (
        ("uniform", np.full((M, N), 0.5)),
        ("varying", rng.uniform(0.05, 1.0, size=(M, N))),
    ):
        A = channels.complex_gaussian(rng, (M, M))
        X = 0.5 * (A + A.conj().T)
        expected = expectation_quadratic(variances, X)
        std = np.sqrt(variances / 2.0)
        Yr = rng.standard_normal((draws, M, N)) * std
        Yi = rng.standard_normal((draws, M, N)) * std
        Y = Yr + 1j * Yi
        Z = np.einsum("dmi,mn,dnj->dij", Y.conj(), X, Y)
        mean = Z.mean(axis=0)
        se_re = Z.real.std(axis=0, ddof=1) / np.sqrt(draws)
        se_im = Z.imag.std(axis=0, ddof=1) / np.sqrt(draws)
        d_re = np.abs(mean.real - expected.real)
        d_im = np.abs(mean.imag - expected.imag)
        case_ok = np.all(d_re <= 3.0 * se_re + 1e-12) and np.all(d_im <= 3.0 * se_im + 1e-12)
        ok = ok and bool(case_ok)
        details.append(f"{label} max |err|/se {max(np.max(d_re/ (se_re+1e-300)), np.max(d_im/(se_im+1e-300))):.2f}")
    return ok, "; ".join(details)


def _fd_gradient(fun, P0: PrecoderSet, h=1e-6):
    """Central-difference gradient over every complex coordinate of the stacked
    precoders [Pc, P_1, ..., P_K], returned side by side as M x N(K+1)."""
    X = np.concatenate([P0.Pc[None], P0.Pp])
    g = np.zeros_like(X)
    for idx in np.ndindex(X.shape):
        for direction in (1.0, 1j):
            plus, minus = X.copy(), X.copy()
            plus[idx] += h * direction
            minus[idx] -= h * direction
            fp = fun(PrecoderSet(Pc=plus[0], Pp=plus[1:], rho=P0.rho))
            fm = fun(PrecoderSet(Pc=minus[0], Pp=minus[1:], rho=P0.rho))
            g[idx] += direction * (fp - fm) / (2.0 * h)
    return side_by_side(g)


@_check("gradient-equality", seconds=60.0)
def check_gradient_equality(seed=2, points=10):
    """Gradients of the smoothed objective and its weighted-MSE surrogate agree."""
    rng = np.random.default_rng(seed)
    M, N, K = 4, 2, 3
    rho, sn2 = 31.6, 1.0
    worst = 0.0
    for _ in range(points):
        sig2 = [float(rng.uniform(0.0, 0.2))] * K
        H_hat = [channels.complex_gaussian(rng, (M, N)) for _ in range(K)]
        P0 = _random_precoders(rng, M, N, K, rho)
        bundles = all_bundles(H_hat, sig2, P0, sn2)
        wts = weights(bundles)

        def f1(P):
            return objective_f1(H_hat, sig2, P, sn2)

        def f2(P):
            Mc, Mp = [], []
            for k in range(K):
                a, b = mse_at_filters(H_hat[k], sig2[k], P, sn2, k, bundles[k].Dc, bundles[k].Dp)
                Mc.append(a)
                Mp.append(b)
            return objective_f2(Mc, Mp, wts)

        g1 = _fd_gradient(f1, P0)
        g2 = _fd_gradient(f2, P0)
        worst = max(worst, float(np.max(np.abs(g1 - g2)) / np.max(np.abs(g1))))
    return worst <= 1e-5, f"worst coordinate rel diff {worst:.2e} over {points} points"


@_check("descent")
def check_descent(seed=3, runs=100):
    """Objective trace never increases; convergence behavior within budget."""
    rng = np.random.default_rng(seed)
    M, N, K = 8, 2, 4
    rho = 10.0 ** (20.0 / 10.0)
    increases = 0
    iters = []
    converged_fast = 0
    for _ in range(runs):
        chans = channels.sample_estimation_channel(M, N, K, [0.1] * K, rng)
        st = run(chans.H_hat, chans.sigma_e2, rho, 1.0)
        if np.any(np.diff(np.array(st.objective_trace)) > 1e-9):
            increases += 1
        iters.append(st.iterations)
        if st.converged and st.iterations < 50:
            converged_fast += 1
    med = float(np.median(iters))
    ok = increases == 0 and converged_fast >= 0.95 * runs and med <= 30.0
    return ok, f"increases={increases}, {converged_fast}/{runs} converged <50 iters, median {med:.0f}"


@_check("split-root")
def check_split_root(seed=4, iterates=100, grid_points=1_000_000):
    """Bisection root of the power-split derivative matches a dense grid scan."""
    rng = np.random.default_rng(seed)
    M, N, K = 8, 2, 4
    rho, sn2 = 100.0, 1.0
    # the grid locates the root to half its spacing, so the gate scales with it
    spacing = (1.0 - 2.0 * T_CLAMP) / (grid_points - 1)
    gate = max(2e-6, 2.0 * spacing)
    worst_gap = 0.0
    interior = flagged = 0
    for _ in range(iterates):
        sig2 = [0.1] * K
        chans = channels.sample_estimation_channel(M, N, K, sig2, rng)
        H_hat = chans.H_hat
        t = float(rng.uniform(0.2, 0.9))
        P = _random_precoders(rng, M, N, K, rho)
        bundles = all_bundles(H_hat, sig2, P, sn2)
        Pp_cat, B, V = solve_p1(H_hat, sig2, bundles.Dp, weights(bundles).Wp, rho, t, sn2)
        P_mid = PrecoderSet(Pc=P.Pc, Pp=np.split(Pp_cat, K, axis=1), rho=rho)
        bundles2 = all_bundles(H_hat, sig2, P_mid, sn2)
        Pc, A, U = solve_p2(H_hat, sig2, bundles2.Dc, weights(bundles2).Wc, Pp_cat, rho, t, sn2)
        Pc_norm = Pc / np.linalg.norm(Pc)
        Pp_norm = Pp_cat / np.linalg.norm(Pp_cat)
        t_star, flag = solve_p3(U, V, A, B, Pc_norm, Pp_norm, rho)
        # independent dense evaluation of the same derivative
        a = checked_real(np.trace(U.conj().T @ Pc_norm))
        bb = checked_real(np.trace(V.conj().T @ Pp_norm))
        c = rho * (
            checked_real(np.trace((A + B) @ Pp_norm @ Pp_norm.conj().T))
            - checked_real(np.trace(A @ Pc_norm @ Pc_norm.conj().T))
        )
        ts = np.linspace(T_CLAMP, 1.0 - T_CLAMP, grid_points)
        dv = np.sqrt(rho / (1.0 - ts)) * a - np.sqrt(rho / ts) * bb + c
        if dv[0] >= 0.0 or dv[-1] <= 0.0:
            continue
        interior += 1
        idx = int(np.argmax(dv >= 0.0))
        t_grid = 0.5 * (ts[idx - 1] + ts[idx])
        worst_gap = max(worst_gap, abs(t_star - t_grid))
        flagged += bool(flag)
    ok = interior == iterates and not flagged and worst_gap <= gate
    detail = f"{interior}/{iterates} interior roots, worst |bisect-grid| {worst_gap:.2e}"
    return ok, detail + (f", boundary flags {flagged}" if flagged else "")


@_check("power-conservation")
def check_power_conservation(seed=5, runs=50):
    """Every emitted precoder set carries exactly the power budget."""
    rng = np.random.default_rng(seed)
    from .baselines import design_precoders

    worst = 0.0
    for i in range(runs):
        M, N, K = 8, 2, 4
        rho = 10.0 ** rng.uniform(0.0, 4.0)
        if i % 3 == 0:
            chans, _ = channels.sample_quantized_csit(M, N, K, 4, rng)
        else:
            chans = channels.sample_estimation_channel(M, N, K, [float(rng.uniform(0, 0.3))] * K, rng)
        for scheme in ("proposed", "rwmmse", "mrt"):
            P, _, _, _ = design_precoders(scheme, chans.H_hat, chans.sigma_e2, rho, 1.0, SolverConfig())
            worst = max(worst, abs(P.power() - rho) / rho)
    return worst <= 1e-9, f"worst relative deviation {worst:.2e}"


@_check("rate-ordering", seconds=900.0)
def check_rate_ordering(seed=6, draws=200, workers=1):
    """Scheme ordering and saturation across the SNR sweep."""
    cfg = ExperimentConfig(
        M=8,
        N=2,
        K=4,
        snr_db_grid=(0.0, 10.0, 30.0, 40.0),
        sigma_e2_grid=(0.1,),
        draws=draws,
        schemes=("proposed", "rwmmse", "mrt"),
        seed=seed,
        workers=workers,
        timing=False,
    )
    result = run_experiment(cfg)
    esr = {(c.scheme, c.snr_db): c.esr_bits for c in result.cells}

    def rates_of(scheme, snr):  # in item order, so paired draw by draw across schemes
        return np.array([r.sum_rate_bits for r in result.records if r.scheme == scheme and r.snr_db == snr])

    msgs = []
    ok = True
    for snr in (30.0, 40.0):
        diff = rates_of("proposed", snr) - rates_of("rwmmse", snr)
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        margin = diff.mean() - 1.645 * se
        ok = ok and margin >= 0.0
        msgs.append(f"pair gap @{snr:.0f}dB {diff.mean():.2f}±{se:.2f}")
    slope_low = (esr["rwmmse", 10.0] - esr["rwmmse", 0.0]) / 10.0
    slope_high = (esr["rwmmse", 40.0] - esr["rwmmse", 30.0]) / 10.0
    ok = ok and slope_high < 0.35 * slope_low
    msgs.append(f"saturation slopes {slope_high:.3f} vs {slope_low:.3f}")
    mrt30 = esr["mrt", 30.0]
    ok = ok and mrt30 < esr["rwmmse", 30.0] and mrt30 < esr["proposed", 30.0]
    msgs.append(f"mrt @30dB {mrt30:.2f}")
    return ok, "; ".join(msgs)


@_check("perfect-csit")
def check_perfect_csit(seed=7, pairs=50):
    """With exact channel knowledge the design collapses to the all-private one."""
    rng = np.random.default_rng(seed)
    M, N, K = 8, 2, 4
    rho = 100.0
    diffs = []
    common_frac = []
    for _ in range(pairs):
        chans = channels.sample_estimation_channel(M, N, K, [0.0] * K, rng)
        st_p = run(chans.H_hat, chans.sigma_e2, rho, 1.0)
        st_r = run(chans.H_hat, chans.sigma_e2, rho, 1.0, force_sdma=True)
        _, _, r_p = instantaneous_rates(chans.H, st_p.P, 1.0)
        _, _, r_r = instantaneous_rates(chans.H, st_r.P, 1.0)
        diffs.append(r_p - r_r)
        common_frac.append(float(np.sum(np.abs(st_p.P.Pc) ** 2)) / rho)
    esr_gap = abs(float(np.mean(diffs)))
    med_common = float(np.median(common_frac))
    ok = esr_gap <= 0.1 and med_common <= 0.05
    return ok, f"ESR gap {esr_gap:.2e} bits, median common power fraction {med_common:.2e}"


@_check("quantization")
def check_quantization(seed=8, draws=200):
    """Planted codewords quantize losslessly; distortion shrinks with codebook size."""
    rng = np.random.default_rng(seed)
    M, N = 4, 2
    book = channels.random_codebook(M, N, 4, rng)
    planted_ok = True
    for _ in range(20):
        i = int(rng.integers(len(book.entries)))
        R = channels.complex_gaussian(rng, (N, N)) + 2.0 * np.eye(N)
        H = book.entries[i] @ R
        idx, _, dist = channels.quantize_channel(H, book)
        planted_ok = planted_ok and idx == i and dist <= 1e-10
    bits_grid = (2, 4, 6, 8)
    per_bits = {b: [] for b in bits_grid}
    for _ in range(draws):
        H = channels.complex_gaussian(rng, (M, N))
        for b in bits_grid:
            book_b = channels.random_codebook(M, N, b, rng)
            _, _, dist = channels.quantize_channel(H, book_b)
            per_bits[b].append(dist / N)
    decreasing = True
    gaps = []
    for lo, hi in zip(bits_grid[:-1], bits_grid[1:]):
        diff = np.array(per_bits[lo]) - np.array(per_bits[hi])
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        decreasing = decreasing and diff.mean() > 1.645 * se
        gaps.append(f"{lo}->{hi} bits gap {diff.mean():.3f}±{se:.3f}")
    return planted_ok and decreasing, f"planted {'ok' if planted_ok else 'FAILED'}; " + "; ".join(gaps)


@_check("determinism")
def check_determinism(seed=9):
    """Identical config and seed produce byte-identical CSV for any worker count."""
    base = dict(
        M=4,
        N=2,
        K=2,
        snr_db_grid=(0.0, 10.0),
        sigma_e2_grid=(0.1,),
        draws=6,
        schemes=("proposed", "rwmmse", "mrt"),
        seed=seed,
        timing=False,
    )
    texts = [
        csv_text(run_experiment(ExperimentConfig(workers=w, **base))) for w in (1, 2, 3)
    ]
    if texts[0] == texts[1] == texts[2]:
        return True, f"{len(texts[0].splitlines())} CSV lines identical across 1/2/3 workers"
    return False, "CSV outputs differ across worker counts"


def run_all(seed=0, quick=False, workers=1):
    """Execute the battery, check i with seed + i, and print one pass/fail line per check.

    A full run takes each check's default sizes; --quick gives the sizes below.
    """
    quick_sizes = (
        (check_mmse_inverse_identity, {"instances": 200}),
        (check_quadratic_expectation, {"draws": 50_000}),
        (check_gradient_equality, {"points": 3}),
        (check_descent, {"runs": 25}),
        (check_split_root, {"iterates": 20, "grid_points": 200_000}),
        (check_power_conservation, {"runs": 10}),
        (functools.partial(check_rate_ordering, workers=workers), {"draws": 40}),
        (check_perfect_csit, {"pairs": 10}),
        (check_quantization, {"draws": 50}),
        (check_determinism, {}),
    )
    results = [check(seed + i, **(sizes if quick else {})) for i, (check, sizes) in enumerate(quick_sizes)]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<24} {r.detail}  [{r.seconds:.1f}s]")
    return results
