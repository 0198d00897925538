"""Reference precoder designs the experiment harness can compare against."""

from __future__ import annotations

import numpy as np

from .rates import PrecoderSet
from .solver import SolverConfig, SolverState, run


def mrt_precoder(H_hat, rho) -> PrecoderSet:
    """Matched-filter private precoders with equal per-user power, no common stream."""
    H = np.asarray(H_hat)
    scale = np.linalg.norm(H, axis=(1, 2), keepdims=True)
    if np.any(scale < 1e-12):
        raise ValueError("degenerate all-zero channel estimate")
    Pp = np.sqrt(rho / len(H)) * H / scale
    return PrecoderSet(Pc=np.zeros(H.shape[1:], dtype=complex), Pp=Pp, rho=float(rho))


def rwmmse_precoder(H_hat, sigma_e2, rho, sigma_n2, cfg: SolverConfig = SolverConfig()) -> SolverState:
    """Robust weighted-MMSE design without the common stream (all power private)."""
    return run(H_hat, sigma_e2, rho, sigma_n2, cfg, force_sdma=True)


def _design_proposed(H_hat, sigma_e2, rho, sigma_n2, cfg):
    st = run(H_hat, sigma_e2, rho, sigma_n2, cfg)
    return st.P, st.iterations, st.t, len(st.boundary_hits)


def _design_rwmmse(H_hat, sigma_e2, rho, sigma_n2, cfg):
    st = rwmmse_precoder(H_hat, sigma_e2, rho, sigma_n2, cfg)
    return st.P, st.iterations, st.t, len(st.boundary_hits)


def _design_mrt(H_hat, sigma_e2, rho, sigma_n2, cfg):
    return mrt_precoder(H_hat, rho), 0, 1.0, 0


SCHEMES = {
    "proposed": _design_proposed,
    "rwmmse": _design_rwmmse,
    "mrt": _design_mrt,
}


def design_precoders(scheme, H_hat, sigma_e2, rho, sigma_n2, cfg: SolverConfig = SolverConfig()):
    """Dispatch by scheme name; returns (PrecoderSet, iterations, t, boundary_hits)."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'; choose from {sorted(SCHEMES)}")
    return SCHEMES[scheme](H_hat, sigma_e2, rho, sigma_n2, cfg)
