# Baseline scheme tests, including the WMMSE cross-check against an
# independent textbook implementation in oracles.py.
from __future__ import annotations

import numpy as np
import pytest

from conftest import make_rng, random_instance
from oracles import plain_wmmse, plain_wmmse_matched
from rsmimo.baselines import (
    SCHEMES,
    design_precoders,
    mrt_precoder,
)
from rsmimo.rates import instantaneous_rates
from rsmimo.solver import SolverConfig, run


def test_registry_names():
    assert tuple(SCHEMES) == ("proposed", "rwmmse", "mrt")


def test_mrt_power_and_shape():
    rng = make_rng(40)
    H_hat, _ = random_instance(rng, 8, 2, 4, 0.0)
    P = mrt_precoder(H_hat, 100.0)
    assert abs(P.power() - 100.0) <= 1e-12 * 100.0
    assert np.all(P.Pc == 0.0)
    for k in range(4):
        # each private precoder is the scaled channel estimate itself
        ratio = P.Pp[k] / H_hat[k]
        assert np.max(np.abs(ratio - ratio[0, 0])) < 1e-12


def test_mrt_single_user_single_antenna_hits_matched_filter_bound():
    rng = make_rng(41)
    h = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    P = mrt_precoder([h], 10.0)
    _, _, sr = instantaneous_rates([h], P, 1.0)
    bound = float(np.log2(1.0 + 10.0 * np.linalg.norm(h) ** 2))
    assert sr == pytest.approx(bound, abs=1e-10)


def test_mrt_rejects_zero_channel():
    with pytest.raises(ValueError):
        mrt_precoder([np.zeros((4, 2), dtype=complex)], 10.0)


def test_rwmmse_is_all_private_and_descending():
    rng = make_rng(42)
    H_hat, s2 = random_instance(rng, 6, 2, 3, 0.1)
    st = run(H_hat, s2, 50.0, 1.0, SolverConfig(max_iters=100), force_sdma=True)
    assert np.all(st.P.Pc == 0.0) and st.t == 1.0
    assert np.all(np.diff(st.objective_trace) <= 0.0)
    assert abs(st.P.power() - 50.0) <= 1e-9 * 50.0


def test_rwmmse_matches_independent_wmmse_perfect_csit():
    # same initialization, same normalized-multiplier convention, two codebases
    rng = make_rng(43)
    cfg = SolverConfig(max_iters=3000, obj_tol=1e-9)
    for trial in range(6):
        H, _ = random_instance(rng, 8, 2, 4, 0.0)
        st = run(H, [0.0] * 4, 100.0, 1.0, cfg, force_sdma=True)
        P0 = [np.sqrt(100.0 / (4 * 2)) * Hk / np.linalg.norm(Hk, axis=0) for Hk in H]
        P_exact, _ = plain_wmmse(H, 100.0, 1.0, P0, iters=5000, tol=1e-13)
        P_matched, _ = plain_wmmse_matched(H, 100.0, 1.0, P0, iters=5000, tol=1e-13)
        Z = np.zeros((8, 2), dtype=complex)
        _, _, sr = instantaneous_rates(H, st.P, 1.0)
        _, _, sr_matched = instantaneous_rates(H, type(st.P)(Pc=Z, Pp=P_matched, rho=100.0), 1.0)
        _, _, sr_exact = instantaneous_rates(H, type(st.P)(Pc=Z, Pp=P_exact, rho=100.0), 1.0)
        assert abs(sr - sr_matched) < 1e-3
        # the exact-multiplier route may land on a different local optimum in
        # the multiuser problem, so only a sanity bracket is asserted for it
        assert sr > 0.6 * sr_exact


def test_rwmmse_single_user_matches_exact_multiplier_wmmse():
    # K = 1 has a unique optimum, so both multiplier conventions must agree
    rng = make_rng(44)
    cfg = SolverConfig(max_iters=3000, obj_tol=1e-9)
    for trial in range(4):
        H, _ = random_instance(rng, 4, 2, 1, 0.0)
        st = run(H, [0.0], 100.0, 1.0, cfg, force_sdma=True)
        P0 = [np.sqrt(100.0 / 2) * H[0] / np.linalg.norm(H[0], axis=0)]
        P_ref, _ = plain_wmmse(H, 100.0, 1.0, P0, iters=5000, tol=1e-13)
        _, _, sr = instantaneous_rates(H, st.P, 1.0)
        _, _, sr_ref = instantaneous_rates(
            H, type(st.P)(Pc=np.zeros((4, 2), dtype=complex), Pp=P_ref, rho=100.0), 1.0
        )
        assert abs(sr - sr_ref) < 1e-3


def test_proposed_never_loses_to_all_private_design():
    # splitting can only add freedom; paired draws, designs see the estimate
    # and the achieved rates are scored on the true channel
    from rsmimo.channels import sample_estimation_channel

    rng = make_rng(45)
    diffs = []
    cfg = SolverConfig(max_iters=200)
    for _ in range(25):
        cs = sample_estimation_channel(8, 2, 4, [0.1] * 4, rng)
        P_rs, _, _, _ = design_precoders("proposed", cs.H_hat, cs.sigma_e2, 100.0, 1.0, cfg)
        P_sd, _, _, _ = design_precoders("rwmmse", cs.H_hat, cs.sigma_e2, 100.0, 1.0, cfg)
        _, _, sr_rs = instantaneous_rates(cs.H, P_rs, 1.0)
        _, _, sr_sd = instantaneous_rates(cs.H, P_sd, 1.0)
        diffs.append(sr_rs - sr_sd)
    d = np.asarray(diffs)
    se = d.std(ddof=1) / np.sqrt(len(d))
    assert float(d.mean() - 1.645 * se) >= -0.05


def test_unknown_scheme_raises_value_error():
    rng = make_rng(47)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)
    with pytest.raises(ValueError, match="unknown scheme"):
        design_precoders("zf", H_hat, s2, 10.0, 1.0)


def test_dispatch_tuple_shape():
    rng = make_rng(48)
    H_hat, s2 = random_instance(rng, 6, 2, 2, 0.1)
    for name in SCHEMES:
        P, iters, t, hits = design_precoders(name, H_hat, s2, 10.0, 1.0, SolverConfig(max_iters=40))
        assert abs(P.power() - 10.0) <= 1e-9 * 10.0
        assert iters >= 0 and 0.0 < t <= 1.0 and hits >= 0
