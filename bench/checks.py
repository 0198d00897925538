"""Correctness checks the benchmark applies to every output it times.

Each check recomputes its quantity without calling the package's own algebra
and returns a list of problems (empty when the output is right). selftest()
shows that every check rejects a slightly wrong answer; run this file to see it:

    python3 bench/checks.py
"""

from __future__ import annotations

import math

import numpy as np

RATE_TOL = 1e-8          # bits, absolute
POWER_TOL = 1e-9         # relative to rho
QUANT_TOL = 1e-10        # chordal-distance slack for a codeword to count as the argmin
Z_ONE_SIDED_95 = 1.645   # paired margin, in standard errors


def _powers(P):
    return float(np.vdot(P.Pc, P.Pc).real + sum(np.vdot(Q, Q).real for Q in P.Pp))


def check_design(P, rho, where):
    """Finite precoders whose total power equals rho to 1e-9 rho."""
    blocks = [P.Pc] + list(P.Pp)
    if not all(np.all(np.isfinite(B)) for B in blocks):
        return [f"{where}: non-finite precoder entries"]
    power = _powers(P)
    if abs(power - rho) > POWER_TOL * rho:
        return [f"{where}: power {power:.15g} differs from rho {rho:.15g}"]
    return []


def check_trace(trace, where):
    """The accepted objective trace never increases."""
    for i in range(1, len(trace)):
        if trace[i] > trace[i - 1]:
            return [f"{where}: objective rose at sweep {i} ({trace[i - 1]!r} -> {trace[i]!r})"]
    return []


def reference_rates(H, P, sigma_n2):
    """Common/private rates in bits from slogdet of explicit covariance matrices.

    Y_k = H_k^H (Pc s_c + sum_j P_j s_j) + n_k. The common stream is decoded
    against all private streams; the private stream of user k against the
    other users' private streams once the common stream is removed.
    """
    Hs = np.stack(H)                                  # (K, M, N)
    K, _, N = Hs.shape
    Hh = Hs.conj().transpose(0, 2, 1)                 # (K, N, M)
    G = Hh[:, None] @ np.stack(P.Pp)[None]            # (K, K, N, N): user k sees stream j
    noise = sigma_n2 * np.eye(N)
    cov_priv = np.einsum("kjab,kjcb->kjac", G, G.conj())  # G G^H per (k, j)
    all_priv = cov_priv.sum(axis=1) + noise                # (K, N, N)
    Gc = Hh @ P.Pc
    with_common = all_priv + Gc @ Gc.conj().transpose(0, 2, 1)
    others = all_priv - cov_priv[np.arange(K), np.arange(K)]

    def logdet2(X):
        sign, ld = np.linalg.slogdet(X)
        return ld / math.log(2.0)

    Rc = logdet2(with_common) - logdet2(all_priv)
    Rp = logdet2(all_priv) - logdet2(others)
    return Rc, Rp


def check_rates(H, P, sigma_n2, Rc, Rp, total, where):
    """instantaneous_rates agrees with the slogdet reference to 1e-8 bits."""
    ref_c, ref_p = reference_rates(H, P, sigma_n2)
    problems = []
    err = max(np.max(np.abs(np.asarray(Rc) - ref_c)), np.max(np.abs(np.asarray(Rp) - ref_p)))
    if not err <= RATE_TOL:
        problems.append(f"{where}: per-user rates differ from slogdet reference by {err:.3e} bits")
    expected = float(np.min(ref_c) + np.sum(ref_p))
    if not abs(total - expected) <= RATE_TOL * len(Rp):
        problems.append(f"{where}: sum rate {total!r} is not min Rc + sum Rp = {expected!r}")
    return problems


def check_quantization(H, codebooks, chans, gamma, where):
    """Codeword choice, estimate scaling and effective error variance.

    The chosen codeword of each user must be an argmin over the whole codebook
    of the chordal distance N - ||U^H C||_F^2, with U the dominant left
    singular vectors of H_k; H_hat_k = sqrt(M (1 - sigma_e2)) C; and sigma_e2
    = M gamma / (M - N), gamma being the mean distortion per column.
    """
    M, N = H[0].shape
    problems = []
    distortions = []
    for k, (Hk, cb) in enumerate(zip(H, codebooks)):
        U = np.linalg.svd(Hk, full_matrices=False)[0]
        C = np.stack(cb.entries)                              # (2^b, M, N)
        s = np.linalg.svd(U.conj().T[None] @ C, compute_uv=False)
        dist = np.maximum(N - np.sum(s**2, axis=1), 0.0)
        best = int(np.argmin(dist))
        distortions.append(dist[best])
        sigma = chans.sigma_e2[k]
        scaled = chans.H_hat[k] / math.sqrt(M * (1.0 - sigma))
        chosen = [i for i in np.flatnonzero(dist <= dist[best] + QUANT_TOL)
                  if np.allclose(scaled, C[i], rtol=0.0, atol=1e-10)]
        if not chosen:
            problems.append(f"{where}: user {k} estimate is not a scaled chordal-argmin codeword")
    gamma_ref = float(np.mean(distortions)) / N
    sigma_ref = min(M * gamma_ref / (M - N), 1.0 - 1e-9)
    if not abs(gamma - gamma_ref) <= 1e-12:
        problems.append(f"{where}: gamma {gamma!r} differs from recomputed {gamma_ref!r}")
    if not all(abs(s - sigma_ref) <= 1e-12 for s in chans.sigma_e2):
        problems.append(f"{where}: sigma_e2 {chans.sigma_e2[0]!r} differs from recomputed {sigma_ref!r}")
    return problems


def paired_margin(a, b):
    """Mean of a - b over paired samples and its standard error."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    if d.size < 2:
        return float(d.mean()), float("inf")
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(d.size))


def check_paired_gain(a, b, where):
    """a beats b on average by more than 1.645 paired standard errors."""
    gap, se = paired_margin(a, b)
    if not gap > Z_ONE_SIDED_95 * se:
        return [f"{where}: gap {gap:.4f} is not above {Z_ONE_SIDED_95} x {se:.4f}"]
    return []


class SelfTestError(AssertionError):
    """A check accepted a wrong answer or rejected a right one."""


def _expect(ok, message):
    if not ok:
        raise SelfTestError(message)


def selftest():
    """Every check passes on a correct output and fails on a perturbed one."""
    import dataclasses

    from rsmimo import baselines, channels, rates, solver

    rng = np.random.default_rng(20240601)
    M, N, K, rho = 4, 2, 2, 100.0
    chans = channels.sample_estimation_channel(M, N, K, [0.1] * K, rng)
    state = solver.run(chans.H_hat, chans.sigma_e2, rho, 1.0, solver.SolverConfig(max_iters=8))
    Rc, Rp, total = rates.instantaneous_rates(chans.H, state.P, 1.0)
    cbs = [channels.random_codebook(M, N, 4, rng) for _ in range(K)]
    Hq = [channels.complex_gaussian(rng, (M, N)) for _ in range(K)]
    qchans, gamma = channels.quantized_csit_from_channels(Hq, cbs)
    mrt = baselines.mrt_precoder(chans.H_hat, rho)

    _expect(not check_design(state.P, rho, "ok"), "design check rejects a correct design")
    _expect(not check_trace(state.objective_trace, "ok"), "trace check rejects a correct trace")
    _expect(not check_rates(chans.H, state.P, 1.0, Rc, Rp, total, "ok"), "rate check rejects")
    _expect(not check_quantization(Hq, cbs, qchans, gamma, "ok"), "quantization check rejects")

    scaled = dataclasses.replace(
        state.P, Pc=state.P.Pc * (1 + 1e-6), Pp=[Q * (1 + 1e-6) for Q in state.P.Pp]
    )
    _expect(check_design(scaled, rho, "scaled"), "design check accepts a precoder scaled by 1+1e-6")
    Rc_s, Rp_s, total_s = rates.instantaneous_rates(chans.H, scaled, 1.0)
    _expect(check_rates(chans.H, state.P, 1.0, Rc_s, Rp_s, total_s, "scaled"),
            "rate check accepts rates of a precoder scaled by 1+1e-6")
    rising = list(state.objective_trace) + [state.objective_trace[-1] + 1e-9]
    _expect(check_trace(rising, "rising"), "trace check accepts a rising trace")
    dist = [channels.chordal_distance(channels.dominant_subspace(Hq[0]), C) for C in cbs[0].entries]
    runner_up = int(np.argsort(dist)[1])
    scale = math.sqrt(M * (1.0 - qchans.sigma_e2[0]))
    swapped = dataclasses.replace(qchans, H_hat=[scale * cbs[0].entries[runner_up]] + qchans.H_hat[1:])
    _expect(check_quantization(Hq, cbs, swapped, gamma, "swapped"), "quantization check accepts a swapped codeword")
    _expect(not check_paired_gain([2.0, 2.1, 1.9], [1.0, 1.0, 1.0], "ok"), "paired check rejects a clear gap")
    _expect(check_paired_gain([1.0, 3.0, -1.0], [1.0, 1.0, 1.0], "noisy"), "paired check accepts a null gap")
    _expect(not check_rates(chans.H, mrt, 1.0, *rates.instantaneous_rates(chans.H, mrt, 1.0), "mrt"),
            "rate check rejects a correct private-only design")


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    selftest()
    print("bench checks self-test: every check accepts correct outputs and rejects perturbed ones")
