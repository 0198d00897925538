"""Alternating block solver for the robust rate-splitting precoder design.

Each outer iteration refreshes filters and weights, solves the private and
common precoder blocks in closed form, then rebalances the common/private
power split by bisection on the scalar split variable t.

Channel estimates and private precoders are (K, M, N) arrays; the closed-form
blocks work on the side-by-side M x NK matrix [P_1, ..., P_K] and accept
per-user lists as well as stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rates import (
    PrecoderSet,
    all_bundles,
    checked_real,
    cholesky_solve,
    f1_from_bundles,
    herm,
    weights,
)


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    obj_tol: float = 1e-4
    bisect_tol: float = 1e-8
    t_clamp: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 < self.obj_tol < 1e-1) or not (0.0 < self.bisect_tol < 1e-1):
            raise ValueError("tolerances must lie in (0, 1e-1)")
        if not (0.0 < self.t_clamp <= 1e-3):
            raise ValueError("t_clamp must lie in (0, 1e-3]")


@dataclass(frozen=True)
class SolverState:
    P: PrecoderSet
    t: float
    objective_trace: list
    iterations: int
    converged: bool
    boundary_hits: tuple = field(default=())


class CommonCollapse(ValueError):
    """The closed-form common precoder direction vanished."""


def _frob(X) -> float:
    return float(np.linalg.norm(X))


def _blocks(Pp_cat, K):
    """Stacked (K, M, N) view of the side-by-side private precoders [P_1, ..., P_K]."""
    M = Pp_cat.shape[0]
    return Pp_cat.reshape(M, K, -1).transpose(1, 0, 2)


def _side_by_side(X):
    """The side-by-side M x NK matrix [X_1, ..., X_K] of a (K, M, N) stack."""
    K, M, N = X.shape
    return X.transpose(1, 0, 2).reshape(M, K * N)


def _all_private(P: PrecoderSet) -> PrecoderSet:
    """Drop the common precoder and rescale the private ones to the full budget."""
    scale = np.sqrt(P.rho / float(np.vdot(P.Pp, P.Pp).real))
    return PrecoderSet(Pc=np.zeros_like(P.Pc), Pp=scale * P.Pp, rho=P.rho)


def initialize(H_hat, rho, sigma_e2_rep):
    """Power split t' = min(1, 1/(rho sigma_e2)) with a singular-space common
    precoder and equal-power matched private precoders; exact total power rho."""
    H = np.asarray(H_hat)
    K, M, N = H.shape
    if M < N:
        raise ValueError("need at least as many transmit antennas as receive antennas")
    stack = H.transpose(1, 0, 2).reshape(M, K * N)
    if _frob(stack) < 1e-12:
        raise ValueError("degenerate all-zero channel estimate")
    t0 = 1.0 if sigma_e2_rep == 0.0 else min(1.0, 1.0 / (rho * sigma_e2_rep))
    if t0 >= 1.0:
        Pc = np.zeros((M, N), dtype=complex)
    else:
        left, _, _ = np.linalg.svd(stack, full_matrices=False)
        Pc = np.sqrt(rho * (1.0 - t0) / N) * left[:, :N]
    norms = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError("degenerate channel estimate column")
    Pp = np.sqrt(rho * t0 / (K * N)) * (H / norms)
    return PrecoderSet(Pc=Pc, Pp=Pp, rho=float(rho)), t0


def _block_system(H_hat, sigma_e2, D, W):
    """Quadratic and linear terms of one precoder block's subproblem.

    With T_k = H_k D_k^H, returns A = herm(sum_k T_k W_k T_k^H) + omega I where
    omega = sum_k sigma_e2[k] tr(W_k D_k D_k^H), the per-user linear terms
    T_k W_k stacked (K, M, N), and sum_k tr(W_k D_k D_k^H). The private block
    uses the linear terms side by side (M x NK), the common block their sum.
    The user sum in A is one M x NK by NK x M product of the side-by-side
    terms, and tr(W_k D_k D_k^H) is the inner product of W_k D_k with D_k.
    """
    H, D, W = np.asarray(H_hat), np.asarray(D), np.asarray(W)
    M = H.shape[1]
    T = H @ D.conj().swapaxes(1, 2)
    TW = T @ W
    quad = checked_real(np.einsum("kij,kij->k", W @ D, D.conj()))
    A = herm(_side_by_side(TW) @ _side_by_side(T).conj().T)
    A += float(np.dot(sigma_e2, quad)) * np.eye(M)
    return A, TW, float(quad.sum())


def solve_p1(H_hat, sigma_e2, Dp_list, Wp_list, rho, t_star, sigma_n2):
    """Closed-form private precoders at power rho*t_star, concatenated M x NK.

    Returns (Pp_cat, B, V), B and V being the block's quadratic and
    side-by-side linear terms that the power split needs.
    """
    if not (0.0 < t_star <= 1.0):
        raise ValueError("t_star must lie in (0, 1]")
    B, TW, tr_wdd = _block_system(H_hat, sigma_e2, Dp_list, Wp_list)
    V = _side_by_side(TW)
    lam1 = sigma_n2 * tr_wdd / (rho * t_star)
    if lam1 <= 0.0:
        raise ValueError("non-positive private multiplier; filters are degenerate")
    Pp_bar = cholesky_solve(B + lam1 * np.eye(B.shape[0]), V)
    return np.sqrt(rho * t_star) * Pp_bar / _frob(Pp_bar), B, V


def solve_p2(H_hat, sigma_e2, Dc_list, Wc_list, Pp_cat, rho, t_star, sigma_n2):
    """Closed-form common precoder at power rho*(1 - t_star), M x N.

    Returns (Pc, A, U), A and U being the block's quadratic and linear terms.
    Pc is zero when t_star >= 1 leaves no common power. Raises
    CommonCollapse when the common direction vanishes (norm below 1e-12).
    """
    A, TW, tr_wdd = _block_system(H_hat, sigma_e2, Dc_list, Wc_list)
    U = TW.sum(axis=0)
    if t_star >= 1.0:
        return np.zeros_like(U), A, U
    cross = checked_real(np.vdot(Pp_cat, A @ Pp_cat))
    lam2 = (sigma_n2 * tr_wdd + cross) / (rho * (1.0 - t_star))
    if lam2 <= 0.0:
        raise ValueError("non-positive common multiplier; filters are degenerate")
    Pc_bar = cholesky_solve(A + lam2 * np.eye(A.shape[0]), U)
    scale = _frob(Pc_bar)
    if scale < 1e-12:
        raise CommonCollapse("common precoder direction collapsed")
    return np.sqrt(rho * (1.0 - t_star)) * Pc_bar / scale, A, U


def solve_p3(U, V, A, B, Pc_norm, Pp_norm, rho, cfg: SolverConfig):
    """Root of the power-split derivative on [t_clamp, 1 - t_clamp] by bisection.

    Returns (t_star, flag) where flag is '' for an interior root and 'low' or
    'high' when the derivative does not change sign inside the clamped interval.
    """
    # tr(U^H Pc), tr(V^H Pp), tr((A + B) Pp Pp^H) and tr(A Pc Pc^H)
    traces = [np.vdot(U, Pc_norm), np.vdot(V, Pp_norm)]
    traces += [np.vdot(Pp_norm, (A + B) @ Pp_norm), np.vdot(Pc_norm, A @ Pc_norm)]
    a, b, quad_p, quad_c = checked_real(traces).tolist()
    if a <= 0.0 or b <= 0.0:
        raise ValueError("filter/precoder alignment traces must be positive")
    c = rho * (quad_p - quad_c)

    def deriv(t):
        return math.sqrt(rho / (1.0 - t)) * a - math.sqrt(rho / t) * b + c

    lo, hi = cfg.t_clamp, 1.0 - cfg.t_clamp
    d_lo, d_hi = deriv(lo), deriv(hi)
    if d_lo >= 0.0:
        return lo, "low"
    if d_hi <= 0.0:
        return hi, "high"
    # derivative is strictly increasing in t, so the sign change is unique
    while hi - lo > cfg.bisect_tol:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), ""


def _check_power(P: PrecoderSet, rho, where):
    if abs(P.power() - rho) > 1e-9 * rho:
        raise RuntimeError(f"{where}: power constraint violated ({P.power():.12g} vs {rho:.12g})")


def run(H_hat, sigma_e2, rho, sigma_n2, cfg: SolverConfig = SolverConfig(), force_sdma=False):
    """Alternating descent on the design objective.

    Accepts a sweep only when it does not increase the objective; the first
    sweep whose relative improvement falls below obj_tol (or which would
    increase the objective, in which case it is discarded) ends the run.
    `force_sdma` pins the common precoder to zero and t to 1 throughout.
    The bundles behind each accepted objective value serve the next sweep's
    private block, so a sweep computes bundles twice (once if all-private).
    """
    H = np.asarray(H_hat)
    K = len(H)
    if len(sigma_e2) != K:
        raise ValueError("per-user error variance count does not match user count")
    if not (0.0 < rho < math.inf and 0.0 < sigma_n2 < math.inf):
        raise ValueError(f"rho and sigma_n2 must be finite and positive, got {rho} and {sigma_n2}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel estimates contain non-finite entries")
    P, t = initialize(H, rho, max(sigma_e2))
    if force_sdma and t < 1.0:
        P, t = _all_private(P), 1.0
    sdma_locked = t >= 1.0
    _check_power(P, rho, "initialization")

    bundles = all_bundles(H, sigma_e2, P, sigma_n2)
    f_cur = f1_from_bundles(bundles)
    trace = [f_cur]
    converged = False
    boundary_hits = []
    iterations = 0

    for it in range(cfg.max_iters):
        iterations = it + 1
        try:
            Wp = weights(bundles).Wp
            Pp_cat, B, V = solve_p1(H, sigma_e2, bundles.Dp, Wp, rho, t, sigma_n2)
            Pp = _blocks(Pp_cat, K)
            t_new = 1.0
            if sdma_locked:
                P_new = PrecoderSet(Pc=np.zeros_like(P.Pc), Pp=Pp, rho=P.rho)
            else:
                mid = all_bundles(H, sigma_e2, PrecoderSet(Pc=P.Pc, Pp=Pp, rho=P.rho), sigma_n2)
                try:
                    Pc_new, A, U = solve_p2(
                        H, sigma_e2, mid.Dc, weights(mid).Wc, Pp_cat, rho, t, sigma_n2
                    )
                except CommonCollapse:
                    # continue as an all-private design
                    sdma_locked = True
                    boundary_hits.append((it, "sdma"))
                    P_new = _all_private(PrecoderSet(Pc=P.Pc, Pp=Pp, rho=P.rho))
                else:
                    Pc_norm = Pc_new / _frob(Pc_new)
                    Pp_norm = Pp_cat / _frob(Pp_cat)
                    t_new, flag = solve_p3(U, V, A, B, Pc_norm, Pp_norm, rho, cfg)
                    if flag:
                        boundary_hits.append((it, flag))
                    P_new = PrecoderSet(
                        Pc=np.sqrt(rho * (1.0 - t_new)) * Pc_norm,
                        Pp=_blocks(np.sqrt(rho * t_new) * Pp_norm, K),
                        rho=P.rho,
                    )
            _check_power(P_new, rho, f"iteration {it}")
            bundles_new = all_bundles(H, sigma_e2, P_new, sigma_n2)
            f_new = f1_from_bundles(bundles_new)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RuntimeError(f"iteration {it}: {exc}") from exc

        if f_new > f_cur:
            # the sweep overshot a fixed point; keep the previous iterate
            converged = True
            break
        P, t, bundles = P_new, t_new, bundles_new
        trace.append(f_new)
        if f_cur - f_new < cfg.obj_tol * abs(f_cur):
            f_cur = f_new
            converged = True
            break
        f_cur = f_new

    if not sdma_locked and t > 1.0 - 1e-4:
        # nearly all-private solution: drop the residual common component
        P, t = _all_private(P), 1.0
        _check_power(P, rho, "final rebalance")

    return SolverState(
        P=P,
        t=float(t),
        objective_trace=trace,
        iterations=iterations,
        converged=converged,
        boundary_hits=tuple(boundary_hits),
    )
