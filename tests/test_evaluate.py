# Experiment harness tests: pairing, determinism, summaries, serialization.
from __future__ import annotations

import json
import subprocess
from dataclasses import replace

import numpy as np
import pytest

from oracles import empirical_cdf_sorted
import rsmimo
from rsmimo import channels, evaluate
from rsmimo.baselines import mrt_precoder
from rsmimo.channels import sample_estimation_channel
from rsmimo.evaluate import (
    CSV_COLUMNS,
    SIGMA_N2,
    ExperimentConfig,
    config_fingerprint,
    csv_text,
    empirical_cdf,
    json_summary,
    run_experiment,
    version_string,
    write_csv,
    write_json,
)
from rsmimo.rates import instantaneous_rates
from rsmimo.solver import SolverConfig


def small_config(**overrides):
    base = dict(
        M=4,
        N=1,
        K=2,
        snr_db_grid=(10.0,),
        sigma_e2_grid=(0.3,),
        draws=4,
        schemes=("mrt", "rwmmse"),
        seed=5,
        solver=SolverConfig(max_iters=60),
        timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_single_draw_reproduces_direct_computation():
    cfg = small_config(draws=1, schemes=("mrt",))
    result = run_experiment(cfg)
    assert len(result.records) == 1
    rec = result.records[0]

    ss = np.random.SeedSequence(entropy=5, spawn_key=(0, 0, 0))
    chans = sample_estimation_channel(4, 1, 2, [0.3, 0.3], np.random.default_rng(ss))
    P = mrt_precoder(chans.H_hat, 10.0)
    Rc, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
    assert rec.sum_rate_bits == sum_rate
    assert rec.rc_min_bits == min(Rc) == 0.0
    assert rec.iterations == 0 and rec.t_final == 1.0 and rec.solver_seconds == 0.0

    cell = result.cells[0]
    assert cell.esr_bits == sum_rate and cell.std_err == 0.0 and cell.draws_used == 1


def test_schemes_share_the_same_channel_draw():
    cfg = small_config(draws=2, schemes=("mrt", "rwmmse", "proposed"))
    result = run_experiment(cfg)
    by_key = {(r.scheme, r.draw): r for r in result.records}
    for draw in range(2):
        ss = np.random.SeedSequence(entropy=5, spawn_key=(0, 0, draw))
        chans = sample_estimation_channel(4, 1, 2, [0.3, 0.3], np.random.default_rng(ss))
        from rsmimo.baselines import design_precoders

        for scheme in cfg.schemes:
            P, _, _, _ = design_precoders(scheme, chans.H_hat, chans.sigma_e2, 10.0, SIGMA_N2, cfg.solver)
            _, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
            assert by_key[(scheme, draw)].sum_rate_bits == sum_rate


def test_results_identical_across_worker_counts():
    texts = []
    for workers in (1, 2):
        result = run_experiment(small_config(workers=workers))
        texts.append((csv_text(result), json_summary(result)))
    assert texts[0] == texts[1]


def test_fingerprint_excludes_workers_but_keeps_model_fields():
    a = config_fingerprint(small_config(workers=1))
    b = config_fingerprint(small_config(workers=7))
    assert a == b
    assert a["csit"] == "estimation" and a["timing"] is False
    assert a["solver"]["max_iters"] == 60
    assert "workers" not in json.dumps(a)


def test_csv_layout_and_zeroed_timing(tmp_path):
    result = run_experiment(small_config())
    text = csv_text(result)
    lines = text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# version: ")
    assert lines[2] == ",".join(CSV_COLUMNS)
    rows = lines[3:]
    assert len(rows) == len(result.records) == 4 * 2
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(CSV_COLUMNS)
        assert fields[-1] == "0.000000"  # timing disabled
        if fields[0] == "mrt":
            assert float(fields[5]) == 0.0  # no common stream, no common rate

    p_csv, p_json = tmp_path / "r.csv", tmp_path / "r.json"
    write_csv(result, p_csv)
    write_json(result, p_json)
    assert p_csv.read_text() == text
    payload = json.loads(p_json.read_text())
    assert payload["version"] == version_string()
    assert version_string().startswith("0.1.0")
    assert len(payload["cells"]) == len(result.cells)


def test_version_string_falls_back_when_git_hangs(monkeypatch):
    def hang(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    assert version_string.__wrapped__() == rsmimo.__version__  # past the cache


def test_summary_cells_are_keyed_on_grid_indices():
    # a grid value given twice makes two cells, each summarizing only the
    # draws of its own grid point
    result = run_experiment(
        small_config(snr_db_grid=(10.0, 10.0), sigma_e2_grid=(0.3, 0.3), draws=3, schemes=("mrt",))
    )
    assert len(result.records) == 4 * 3
    assert [c.draws_used for c in result.cells] == [3] * 4
    # every grid point draws its own channels, so the four cell means differ
    assert len({c.esr_bits for c in result.cells}) == 4


def test_summary_cells_match_record_means():
    result = run_experiment(small_config(draws=6))
    for cell in result.cells:
        sel = [r.sum_rate_bits for r in result.records if r.scheme == cell.scheme]
        assert cell.draws_used == 6
        assert cell.esr_bits == pytest.approx(np.mean(sel), abs=1e-12)
        assert cell.std_err == pytest.approx(np.std(sel, ddof=1) / np.sqrt(6), abs=1e-12)


def test_mrt_esr_grows_with_snr():
    cfg = small_config(snr_db_grid=(0.0, 10.0, 20.0), schemes=("mrt",), draws=20)
    result = run_experiment(cfg)
    esr = [c.esr_bits for c in result.cells]
    assert esr[0] < esr[1] < esr[2]


def test_failures_are_recorded_and_excluded(monkeypatch):
    from rsmimo.baselines import design_precoders as real_design

    def flaky(scheme, H_hat, sigma_e2, rho, sigma_n2, cfg=SolverConfig()):
        if scheme == "mrt" and flaky.count == 3:
            flaky.count += 1
            raise RuntimeError("synthetic failure")
        if scheme == "mrt":
            flaky.count += 1
        return real_design(scheme, H_hat, sigma_e2, rho, sigma_n2, cfg)

    flaky.count = 0
    monkeypatch.setattr("rsmimo.evaluate.design_precoders", flaky)
    result = run_experiment(small_config(draws=51))  # 102 attempts, 1 failure < 1%
    assert len(result.failures) == 1
    assert result.failures[0]["scheme"] == "mrt" and "synthetic" in result.failures[0]["error"]
    mrt_cell = next(c for c in result.cells if c.scheme == "mrt")
    assert mrt_cell.draws_used == 50 and mrt_cell.failures == 1


def test_failure_rate_above_threshold_aborts(monkeypatch):
    def broken(scheme, *args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", broken)
    with pytest.raises(RuntimeError, match="1% threshold"):
        run_experiment(small_config(draws=4))


def test_quantized_mode_records_effective_variance():
    cfg = small_config(
        M=4, N=1, K=2, csit="quantized", bits=3, sigma_e2_grid=(), draws=3, schemes=("mrt",)
    )
    result = run_experiment(cfg)
    assert len(result.records) == 3
    for r in result.records:
        assert 0.0 <= r.sigma_e2 < 1.0
    for c in result.cells:
        assert c.sigma_e2 is None and c.draws_used == 3
    fp = config_fingerprint(cfg)
    assert fp["csit"] == "quantized" and fp["bits"] == 3


@pytest.mark.parametrize(
    "overrides",
    [
        dict(draws=0),
        dict(snr_db_grid=()),
        dict(snr_db_grid=(float("nan"),)),
        dict(sigma_e2_grid=()),
        dict(schemes=()),
        dict(schemes=("rbd",)),  # unknown scheme
        dict(schemes=("zf",)),
        dict(csit="genie"),
        dict(csit="quantized", bits=0),
        dict(workers=0),
        dict(schemes=("proposed", "mrt", "proposed")),  # a scheme named twice
        dict(draws=2.0),  # integer fields must be integers
        dict(seed=1.5),
        dict(csit="quantized", bits=2.5),
        dict(M=4.0),
        dict(workers="2"),
        dict(snr_db_grid=(10.0, 4000.0)),  # 10^(snr_db/10) overflows
        dict(snr_db_grid=(-4000.0,)),  # ... or underflows to 0
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


def test_integer_fields_are_named_when_rejected_and_coerced_when_accepted():
    for name, value in (("draws", 2.0), ("seed", 1.5), ("bits", 2.5), ("K", None)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            small_config(**{name: value})
    with pytest.raises(ValueError, match="max_iters must be an integer, got 2.5"):
        SolverConfig(max_iters=2.5)
    with pytest.raises(ValueError, match="SNR 4000 dB"):
        small_config(snr_db_grid=(4000.0,))
    cfg = small_config(draws=np.int64(1), seed=np.int64(5), solver=SolverConfig(max_iters=np.int64(60)))
    assert type(cfg.draws) is int and type(cfg.solver.max_iters) is int
    assert csv_text(run_experiment(cfg)) == csv_text(run_experiment(small_config(draws=1)))


def test_pool_is_no_larger_than_the_grid(monkeypatch):
    # a stand-in for the process pool that records its size and runs the
    # items on threads, each started only when an item needs it
    from concurrent.futures import ThreadPoolExecutor

    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Recording)
    one_item = small_config(draws=1, schemes=("mrt",))
    texts = [csv_text(run_experiment(replace(one_item, workers=w))) for w in (1, 32)]
    run_experiment(small_config(draws=4, schemes=("mrt",), workers=2))
    assert sizes == [1, 2]
    assert texts[0] == texts[1]


def test_empirical_cdf_matches_sort_count_oracle():
    rng = np.random.default_rng(50)
    samples = rng.normal(size=400)
    cdf = empirical_cdf(samples)
    queries = np.concatenate([rng.normal(size=500), samples[:50]])
    for x in queries:
        assert cdf(float(x)) == pytest.approx(empirical_cdf_sorted(samples, float(x)), abs=1e-15)
    assert cdf(float(np.min(samples)) - 1.0) == 0.0
    assert cdf(float(np.max(samples))) == 1.0
    # vectorized evaluation with monotone, step-1/n output
    xs = np.sort(rng.normal(size=200))
    vals = cdf(xs)
    assert vals.shape == xs.shape
    assert np.all(np.diff(vals) >= 0.0)
    steps = np.unique(np.diff(np.unique(vals)))
    assert np.all(steps >= 1.0 / 400 - 1e-15)


def test_empirical_cdf_rejects_empty():
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_all_private_twins_are_designed_once_with_separate_design_rows(monkeypatch):
    # rho * sigma_e2 <= 1 at 0 and 10 dB, so proposed starts all-private and
    # equals rwmmse there; 30 dB designs both schemes
    from rsmimo.baselines import design_precoders as real_design

    calls = []

    def counting(scheme, H_hat, sigma_e2, rho, *args):
        calls.append((scheme, round(rho)))
        return real_design(scheme, H_hat, sigma_e2, rho, *args)

    def rows(schemes):
        cfg = small_config(N=2, snr_db_grid=(0.0, 10.0, 30.0), sigma_e2_grid=(0.1,), draws=3,
                           schemes=schemes, solver=SolverConfig())
        return [ln for ln in csv_text(run_experiment(cfg)).splitlines() if not ln.startswith("#")]

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", counting)
    together = rows(("mrt", "rwmmse", "proposed"))
    assert sorted(set(calls)) == [("mrt", 1), ("mrt", 10), ("mrt", 1000),
                                  ("proposed", 1000), ("rwmmse", 1), ("rwmmse", 10), ("rwmmse", 1000)]
    assert len(calls) == 3 * 7
    for scheme in ("mrt", "rwmmse", "proposed"):
        alone = rows((scheme,))
        assert alone[0] == together[0]
        assert alone[1:] == [ln for ln in together[1:] if ln.startswith(scheme + ",")]


def test_a_failed_twin_design_fails_both_schemes(monkeypatch):
    def broken(scheme, *args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("rsmimo.evaluate.design_precoders", broken)
    cfg = small_config(draws=1, snr_db_grid=(0.0,), schemes=("proposed", "rwmmse"))
    records, failures = evaluate._run_draw(cfg, 0, 0, 0)
    assert records == [] and [f["scheme"] for f in failures] == ["proposed", "rwmmse"]
    assert failures[0] == {**failures[1], "scheme": "proposed"}


def _plant_rank_deficiency(monkeypatch, scale):
    """Make draw 1 of every grid point nearly rank deficient for one user.

    In estimation mode one estimate column of that user gets norm `scale`; in
    quantized mode the user's true channel gets smallest singular value
    `scale` and is requantized with fresh 4-bit codebooks. Returns the lists
    that collect every designed PrecoderSet and the planted user's smallest
    column norm (estimation) or singular value (quantized) per planted draw.
    """
    draw_channels, design = evaluate.draw_channels, evaluate.design_precoders
    designs, planted_sizes = [], []

    def planted(cfg, sigma_idx, snr_idx, draw):
        chans, rho = draw_channels(cfg, sigma_idx, snr_idx, draw)
        if draw != 1:
            return chans, rho
        k = snr_idx % cfg.K
        if cfg.csit == "estimation":
            H_hat = [h.copy() for h in chans.H_hat]
            H_hat[k][:, -1] *= scale / np.linalg.norm(H_hat[k][:, -1])
            planted_sizes.append(np.linalg.norm(H_hat[k], axis=0).min())
            return replace(chans, H=[h + e for h, e in zip(H_hat, chans.E)], H_hat=H_hat), rho
        H = list(chans.H)
        u, s, vh = np.linalg.svd(H[k], full_matrices=False)
        H[k] = (u * np.append(s[:-1], scale)) @ vh
        planted_sizes.append(np.linalg.svd(H[k], compute_uv=False)[-1])
        rng = np.random.default_rng(snr_idx)
        books = [channels.random_codebook(cfg.M, cfg.N, 4, rng) for _ in range(cfg.K)]
        return channels.quantized_csit_from_channels(H, books)[0], rho

    def recording(*args):
        out = design(*args)
        designs.append(out[0])
        return out

    monkeypatch.setattr(evaluate, "draw_channels", planted)
    monkeypatch.setattr(evaluate, "design_precoders", recording)
    return designs, planted_sizes


RANK_GRID = dict(M=6, N=2, K=3, snr_db_grid=(0.0, 20.0, 60.0), draws=2,
                 schemes=("proposed", "rwmmse", "mrt"), solver=SolverConfig(), seed=9)


@pytest.mark.parametrize("csit", ["estimation", "quantized"])
@pytest.mark.parametrize("scale", [1e-11, 1e-10, 1e-8, 1e-6])
def test_nearly_rank_deficient_draws_are_designed_and_scored(monkeypatch, csit, scale):
    # just above the 1e-12 guards, where the Cholesky factorizations of the
    # MSE bundles would be the first to break: every draw is still designed,
    # scored and written, with nothing non-finite and nothing dropped
    designs, planted_sizes = _plant_rank_deficiency(monkeypatch, scale)
    cfg = small_config(**RANK_GRID, csit=csit, bits=4, sigma_e2_grid=(0.0, 0.1))
    result = run_experiment(cfg)
    cells = len(cfg.snr_db_grid) * (len(cfg.sigma_e2_grid) if csit == "estimation" else 1)
    assert len(planted_sizes) == cells
    np.testing.assert_allclose(planted_sizes, scale, rtol=1e-3)
    assert result.failures == []
    assert len(result.records) == cells * cfg.draws * len(cfg.schemes)
    assert all(c.draws_used == cfg.draws and c.failures == 0 for c in result.cells)
    assert all(np.all(np.isfinite(P.full())) for P in designs)
    assert all(np.isfinite([r.sum_rate_bits, r.rc_min_bits, r.t_final]).all() for r in result.records)
    text = csv_text(result).lower()
    assert "nan" not in text and "inf" not in text


@pytest.mark.parametrize("csit, message", [
    ("estimation", r"user [0-2]: channel estimate column 1 has norm 1e-13 < 1e-12"),
    ("quantized", r"user [0-2]: channel is numerically rank deficient: smallest singular value .* < 1e-12"),
], ids=["estimation", "quantized"])
def test_rank_deficient_draw_below_the_guard_stops_the_run_naming_it(monkeypatch, csit, message):
    _plant_rank_deficiency(monkeypatch, 1e-13)
    with pytest.raises(ValueError, match=message):
        run_experiment(small_config(**RANK_GRID, csit=csit, bits=4, sigma_e2_grid=(0.1,)))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("csit, item", [
    ("estimation", "sigma_e2=0.1, snr_db=0.0, draw=1, scheme=proposed: user 0: "),
    ("quantized", "quantized 4 bits, snr_db=0.0, draw=1: user 0: "),
], ids=["estimation", "quantized"])
def test_a_draw_below_the_guard_is_named_by_its_grid_point(monkeypatch, csit, item, workers):
    # the first planted item in grid order stops the run, from a pool worker too
    # (which inherits the planted draw_channels by forking)
    _plant_rank_deficiency(monkeypatch, 1e-13)
    cfg = small_config(**RANK_GRID, csit=csit, bits=4, sigma_e2_grid=(0.1,), workers=workers)
    with pytest.raises(ValueError) as info:
        run_experiment(cfg)
    assert str(info.value).startswith(item)
