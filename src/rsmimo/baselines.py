"""Reference precoder designs the experiment harness can compare against."""

from __future__ import annotations

import numpy as np

from .rates import PrecoderSet
from .solver import SolverConfig, run


def mrt_precoder(H_hat, rho) -> PrecoderSet:
    """Matched-filter private precoders with equal per-user power, no common stream."""
    H = np.asarray(H_hat)
    scale = np.linalg.norm(H, axis=(1, 2), keepdims=True)
    if np.any(scale < 1e-12):
        raise ValueError("degenerate all-zero channel estimate")
    Pp = np.sqrt(rho / len(H)) * H / scale
    return PrecoderSet(Pc=np.zeros(H.shape[1:], dtype=complex), Pp=Pp, rho=float(rho))


SCHEMES = ("proposed", "rwmmse", "mrt")


def design_precoders(scheme, H_hat, sigma_e2, rho, sigma_n2, cfg: SolverConfig = SolverConfig()):
    """Dispatch by scheme name; returns (PrecoderSet, iterations, t, boundary_hits).

    rwmmse is the robust weighted-MMSE design without the common stream: the
    proposed solver started all-private.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme '{scheme}'; choose from {sorted(SCHEMES)}")
    if scheme == "mrt":
        return mrt_precoder(H_hat, rho), 0, 1.0, 0
    st = run(H_hat, sigma_e2, rho, sigma_n2, cfg, force_sdma=scheme == "rwmmse")
    return st.P, st.iterations, st.t, len(st.boundary_hits)
