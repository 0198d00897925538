"""Alternating block solver for the robust rate-splitting precoder design.

Each sweep refreshes filters and weights, solves the private and common
precoder blocks in closed form, then rebalances the common/private power split
by bisection on the scalar split variable t. `run` groups the sweeps into
SQUAREM cycles: two sweeps, an extrapolation along them and one stabilizing
sweep from the extrapolated point. A design that starts all-private (t' = 1,
or the rwmmse baseline) stays so. One that starts with a common block keeps
it until the final rebalance; a common direction that vanishes on the way is
an error, not a switch to all-private.

Channel estimates and private precoders are (K, M, N) arrays; the closed-form
blocks work on the side-by-side M x NK matrix [P_1, ..., P_K] and accept
per-user lists as well as stacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import as_int, check_dims
from .rates import (
    PrecoderSet,
    all_bundles,
    checked_real,
    cholesky_solve,
    f1_from_bundles,
    frobenius,
    herm,
    side_by_side,
    weights,
)

T_CLAMP = 1e-6  # the power split t stays in [T_CLAMP, 1 - T_CLAMP] unless all-private (t = 1)
BISECT_TOL = 1e-8  # width of the final bisection interval around the split root


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 100
    obj_tol: float = 1e-4

    def __post_init__(self):
        object.__setattr__(self, "max_iters", as_int("max_iters", self.max_iters))
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0.0 < self.obj_tol < 1e-1):
            raise ValueError("obj_tol must lie in (0, 1e-1)")


@dataclass(frozen=True, eq=False)
class SolverState:
    """A finished design.

    `termination` is 'tol' (a sweep improved by less than obj_tol), 'overshoot'
    (a sweep, possibly a stabilizing one, would have raised the objective and
    was discarded) or 'max_iters'. `extrapolations` counts the sweeps actually
    started from an extrapolated point, `extrapolations_accepted` those kept.
    `boundary_hits` holds (iteration, 'low' or 'high') for each P3 solve that
    stopped at an end of the split clamp, a discarded final sweep's included.
    `objective_trace` holds the objective of every accepted iterate, a kept
    final rebalance included, so its last value is the objective of P.
    States compare and hash by identity.
    """

    P: PrecoderSet
    t: float
    objective_trace: list
    iterations: int
    termination: str
    boundary_hits: tuple = field(default=())
    extrapolations: int = 0
    extrapolations_accepted: int = 0

    @property
    def converged(self) -> bool:
        """False only when the run stopped at max_iters."""
        return self.termination != "max_iters"


def _blocks(Pp_cat, K):
    """Stacked (K, M, N) view of the side-by-side private precoders [P_1, ..., P_K]."""
    M = Pp_cat.shape[0]
    return Pp_cat.reshape(M, K, -1).transpose(1, 0, 2)


def _all_private(P: PrecoderSet) -> PrecoderSet:
    """The final rebalance: drop the common precoder and rescale the private
    ones to the full budget."""
    scale = np.sqrt(P.rho / float(np.vdot(P.Pp, P.Pp).real))
    return PrecoderSet(Pc=np.zeros_like(P.Pc), Pp=scale * P.Pp, rho=P.rho)


def initial_split(rho, sigma_e2_rep):
    """t' = min(1, 1/(rho sigma_e2)), also 1 where rho * sigma_e2 underflows to 0.

    At t' = 1 `run` starts all-private and stays so, which makes the proposed
    design the same as the rwmmse one, step for step.
    """
    return 1.0 / max(1.0, rho * sigma_e2_rep)


def initialize(H_hat, rho, sigma_e2_rep):
    """Power split t' = initial_split(rho, sigma_e2) with a singular-space common
    precoder and equal-power matched private precoders; exact total power rho."""
    H = np.asarray(H_hat)
    if H.ndim != 3 or not len(H):
        raise ValueError(f"need a (K, M, N) stack of channel estimates with K >= 1, got shape {H.shape}")
    K, M, N = H.shape
    check_dims(M, N, K)
    t0 = initial_split(rho, sigma_e2_rep)
    if t0 >= 1.0:
        Pc = np.zeros((M, N), dtype=complex)
    else:
        left, _, _ = np.linalg.svd(side_by_side(H), full_matrices=False)
        Pc = np.sqrt(rho * (1.0 - t0) / N) * left[:, :N]
    norms = np.linalg.norm(H, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        k, _, n = np.argwhere(norms < 1e-12)[0]
        raise ValueError(f"user {k}: channel estimate column {n} has norm {norms[k, 0, n]:.3g} < 1e-12")
    Pp = np.sqrt(rho * t0 / (K * N)) * (H / norms)
    return PrecoderSet(Pc=Pc, Pp=Pp, rho=float(rho)), t0


def _plus_identity(A, s):
    """A + s I for a square matrix A, without forming I."""
    A = A.copy()
    A.flat[:: len(A) + 1] += s
    return A


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
    Dh = D.conj()
    T = H @ Dh.swapaxes(1, 2)
    TW = T @ W
    quad = checked_real(np.einsum("kij,kij->k", W @ D, Dh))
    A = herm(side_by_side(TW) @ side_by_side(T).conj().T)
    A.flat[:: M + 1] += float(np.dot(sigma_e2, quad))
    return A, TW, float(quad.sum())


def solve_p1(H_hat, sigma_e2, Dp_list, Wp_list, rho, t_star, sigma_n2):
    """Closed-form private precoders at power rho*t_star, concatenated M x NK.

    Returns (Pp_cat, B, V), B and V being the block's quadratic and
    side-by-side linear terms that the power split needs.
    """
    if not (0.0 < t_star <= 1.0):
        raise ValueError("t_star must lie in (0, 1]")
    B, TW, tr_wdd = _block_system(H_hat, sigma_e2, Dp_list, Wp_list)
    V = side_by_side(TW)
    lam1 = sigma_n2 * tr_wdd / (rho * t_star)
    if lam1 <= 0.0:
        raise ValueError("non-positive private multiplier; filters are degenerate")
    Pp_bar = cholesky_solve(_plus_identity(B, lam1), V)
    return math.sqrt(rho * t_star) * Pp_bar / frobenius(Pp_bar), B, V


def solve_p2(H_hat, sigma_e2, Dc_list, Wc_list, Pp_cat, rho, t_star, sigma_n2):
    """Closed-form common precoder at power rho*(1 - t_star), M x N.

    Returns (Pc, A, U), A and U being the block's quadratic and linear terms.
    Raises a ValueError when the common direction vanishes (norm below 1e-12).
    """
    if not (0.0 < t_star < 1.0):
        raise ValueError("t_star must lie in (0, 1)")
    A, TW, tr_wdd = _block_system(H_hat, sigma_e2, Dc_list, Wc_list)
    U = TW.sum(axis=0)
    cross = checked_real(np.vdot(Pp_cat, A @ Pp_cat))
    lam2 = (sigma_n2 * tr_wdd + cross) / (rho * (1.0 - t_star))
    if lam2 <= 0.0:
        raise ValueError("non-positive common multiplier; filters are degenerate")
    Pc_bar = cholesky_solve(_plus_identity(A, lam2), U)
    scale = frobenius(Pc_bar)
    if scale < 1e-12:
        raise ValueError(f"common precoder direction collapsed (norm {scale:.3g} < 1e-12)")
    return math.sqrt(rho * (1.0 - t_star)) * Pc_bar / scale, A, U


def solve_p3(U, V, A, B, Pc_norm, Pp_norm, rho):
    """Root of the power-split derivative on [T_CLAMP, 1 - T_CLAMP] by bisection.

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

    lo, hi = T_CLAMP, 1.0 - T_CLAMP
    if deriv(lo) >= 0.0:
        return lo, "low"
    if deriv(hi) <= 0.0:
        return hi, "high"
    # derivative is strictly increasing in t, so the sign change is unique
    while hi - lo > BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if deriv(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), ""


def _check_power(P: PrecoderSet, rho, where):
    if not abs(P.power() - rho) <= 1e-9 * rho:  # a NaN power fails too
        raise RuntimeError(f"{where}: power constraint violated ({P.power():.12g} vs {rho:.12g})")


def _extrapolate(P0, P1, P2, step_max):
    """SQUAREM step (Varadhan & Roland 2008) from three successive iterates.

    With r = P1 - P0 and v = P2 - 2 P1 + P0 over all precoder blocks, the step
    alpha = -||r|| / ||v|| is clamped to [-step_max, -1]; alpha = -1 gives P2
    itself, and P and t are then None. Otherwise P is P0 - 2 alpha r + alpha^2 v
    rescaled to the power budget, with split t = ||Pp||^2 / rho. Returns
    (alpha, P, t), or None when t leaves [T_CLAMP, 1 - T_CLAMP]. All-private
    iterates (zero common blocks) give a zero common block and t = 1.
    """
    X0, X1, X2 = (np.concatenate([P.Pc[None], P.Pp]) for P in (P0, P1, P2))
    r = X1 - X0
    v = X2 - X1 - r
    rr, vv = float(np.vdot(r, r).real), float(np.vdot(v, v).real)
    alpha = -min(step_max, max(1.0, math.sqrt(rr / vv) if vv > 0.0 else math.inf))
    if alpha == -1.0:
        return alpha, None, None
    X = X0 - 2.0 * alpha * r + alpha**2 * v
    X *= math.sqrt(P0.rho / float(np.vdot(X, X).real))
    t = float(np.vdot(X[1:], X[1:]).real) / P0.rho if P0.Pc.any() else 1.0
    if P0.Pc.any() and not T_CLAMP <= t <= 1.0 - T_CLAMP:
        return None
    return alpha, PrecoderSet(Pc=X[0], Pp=X[1:], rho=P0.rho), t


def run(H_hat, sigma_e2, rho, sigma_n2, cfg: SolverConfig = SolverConfig(), force_sdma=False):
    """Alternating descent on the design objective, accelerated by SQUAREM cycles.

    A cycle makes two sweeps P0 -> P1 -> P2, extrapolates along them
    (`_extrapolate`) and makes one stabilizing sweep from the extrapolated
    point. A cycle skips the extrapolation when the extrapolated split leaves
    the clamp interval. step_max starts at 1 and is multiplied by 4 each time
    a capped step is planned.

    Every sweep, the stabilizing one included, is measured against the last
    accepted objective (f(P2) for the stabilizing sweep), so the trace holds
    accepted values only and never rises. After each sweep, a relative
    improvement below obj_tol ends the run ('tol'); a sweep that would
    increase the objective is discarded and ends it too ('overshoot'), which
    keeps P2 when the stabilizing sweep fails. `max_iters` counts sweeps,
    stabilizing ones included.
    `force_sdma` starts the design all-private through `initialize` at
    t' = 1, the start every design with rho * sigma_e2 <= 1 takes; such a
    design stays all-private. Otherwise every sweep solves P1, P2 and P3, and
    a split that ends with 1 - 1e-4 < t < 1 is rebalanced to all-private after
    the last sweep, measured like a sweep: the rebalance is kept, and its
    objective appended to the trace, only if it does not raise the objective.
    A breakdown in a sweep, a vanished common direction or a non-finite
    objective among them, raises a RuntimeError that names the iteration.
    The bundles behind each accepted objective value serve the next sweep's
    private block, so a sweep computes bundles twice (once if all-private),
    and an extrapolated point and a final rebalance once more.
    """
    H = np.asarray(H_hat)
    K = len(H)
    for k, s2 in enumerate(sigma_e2):
        if not 0.0 <= s2 < math.inf:
            raise ValueError(f"user {k}: error variance must be finite and non-negative, got {s2}")
    if not (0.0 < rho < math.inf and 0.0 < sigma_n2 < math.inf):
        raise ValueError(f"rho and sigma_n2 must be finite and positive, got {rho} and {sigma_n2}")
    if not np.all(np.isfinite(H)):
        raise ValueError("channel estimates contain non-finite entries")
    # an error variance of 0 gives t' = 1; initialize rejects an empty stack
    P, t = initialize(H, rho, 0.0 if force_sdma else max(sigma_e2, default=0.0))
    sigma_e2 = np.asarray(sigma_e2, dtype=float)  # once, not in every kernel call
    _check_power(P, rho, "initialization")
    boundary_hits = []

    def sweep(it, x):
        """A pass from the accepted iterate or the extrapolated x = (P, t); returns (P, t, bundles, f)."""
        P_s, t_s = x or (P, t)
        start = all_bundles(H, sigma_e2, P_s, sigma_n2) if x else bundles
        Pp_cat, B, V = solve_p1(H, sigma_e2, start.Dp, weights(start).Wp, rho, t_s, sigma_n2)
        Pc, t_new = np.zeros_like(P_s.Pc), 1.0
        if t_s < 1.0:
            P_mid = PrecoderSet(Pc=P_s.Pc, Pp=_blocks(Pp_cat, K), rho=P_s.rho)
            mid = all_bundles(H, sigma_e2, P_mid, sigma_n2, private=False)  # P2 reads Dc, Wc only
            Pc, A, U = solve_p2(H, sigma_e2, mid.Dc, weights(mid).Wc, Pp_cat, rho, t_s, sigma_n2)
            Pc, Pp_cat = Pc / frobenius(Pc), Pp_cat / frobenius(Pp_cat)
            t_new, flag = solve_p3(U, V, A, B, Pc, Pp_cat, rho)
            Pc, Pp_cat = math.sqrt(rho * (1.0 - t_new)) * Pc, math.sqrt(rho * t_new) * Pp_cat
            if flag:
                boundary_hits.append((it, flag))
        P_new = PrecoderSet(Pc=Pc, Pp=_blocks(Pp_cat, K), rho=P_s.rho)
        _check_power(P_new, rho, f"iteration {it}")
        bundles_new = all_bundles(H, sigma_e2, P_new, sigma_n2)
        return P_new, t_new, bundles_new, f1_from_bundles(bundles_new)

    bundles = all_bundles(H, sigma_e2, P, sigma_n2)
    f_cur = f1_from_bundles(bundles)
    trace = [f_cur]
    cycle = [P]  # the cycle's accepted iterates, P0 first
    x = None  # the next sweep's extrapolated start (P, t), if any
    step_max, tried, kept = 1.0, 0, 0
    termination = "max_iters"
    for it in range(cfg.max_iters):
        tried += x is not None
        try:
            P_new, t_new, bundles_new, f_new = sweep(it, x)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise RuntimeError(f"iteration {it}: {exc}") from exc
        if not math.isfinite(f_new):  # else both tests below read it as an overshoot
            raise RuntimeError(f"iteration {it}: objective is not finite ({f_new})")

        converged = f_cur - f_new < cfg.obj_tol * abs(f_cur)
        if f_new <= f_cur:  # a sweep that overshot is discarded, and then converged holds
            P, t, bundles, f_cur = P_new, t_new, bundles_new, f_new
            trace.append(f_new)
            kept += x is not None
        if converged:
            termination = "tol" if f_new <= f_cur else "overshoot"
            break

        cycle.append(P)
        x = None
        if len(cycle) == 3:
            step = _extrapolate(*cycle, step_max)
            if step is None:
                del cycle[:2]  # P2 starts the next cycle
            else:  # the stabilizing sweep's iterate starts the next cycle
                cycle, (alpha, P_x, t_x) = [], step
                if alpha == -step_max:  # grown now, as if kept: a step that is not kept ends the run
                    step_max *= 4.0
                x = None if P_x is None else (P_x, t_x)

    if 1.0 - 1e-4 < t < 1.0:
        # nearly all-private solution: drop the residual common component
        P_ap = _all_private(P)
        _check_power(P_ap, rho, "final rebalance")
        f_ap = f1_from_bundles(all_bundles(H, sigma_e2, P_ap, sigma_n2))
        if f_ap <= f_cur:
            P, t = P_ap, 1.0
            trace.append(f_ap)

    return SolverState(
        P=P, t=float(t), objective_trace=trace, iterations=it + 1, termination=termination,
        boundary_hits=tuple(boundary_hits), extrapolations=tried, extrapolations_accepted=kept,
    )
