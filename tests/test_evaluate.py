# Experiment harness tests: pairing, determinism, summaries, serialization.
from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import empirical_cdf_sorted
from rsmimo import evaluate
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
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ValueError):
        small_config(**overrides)


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
