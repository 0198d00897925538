# Benchmark interface tests: the package still offers every name, shape and
# output format that bench/ relies on, so interface drift fails here rather
# than in the middle of a benchmark run.
from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402


def test_bench_checks_selftest():
    # builds a planted quantized estimate from list-valued H_hat, among others
    checks.selftest()


@pytest.mark.parametrize("workload", ["headline", "limited_feedback"])
def test_one_draw_is_clean(workload):
    ctx = workloads.prepare(ROOT, workload, seed=1)
    capture = workloads.StateCapture(ctx.mods.baselines)
    try:
        out = workloads.one_draw(ctx, capture, 0)
    finally:
        capture.close()
    assert out.problems == []
    assert out.failed == 0
    assert set(out.states) == set(workloads.SOLVED)
    assert set(out.sum_rate) == set(workloads.SCHEMES)


def test_replay_iterates_bundles_and_weights_per_user():
    # the replay builds its P1 and P2 arguments as [b.Dp for b in bundles] and
    # [w.Wp for w in weights(bundles)] and swallows an AttributeError there,
    # which would leave the solve metrics unmeasured
    ctx = workloads.prepare(ROOT, "headline", seed=1)
    solver = ctx.mods.solver
    chans = ctx.mods.channels.sample_estimation_channel(8, 2, 4, [0.1] * 4, np.random.default_rng(1))
    P, t = solver.initialize(chans.H_hat, ctx.rho, 0.1)
    bundles = solver.all_bundles(chans.H_hat, chans.sigma_e2, P, 1.0)
    w = solver.weights(bundles)
    per_user = [(b.Dp, b.Dc, wk.Wp, wk.Wc) for b, wk in zip(bundles, w)]
    assert len(per_user) == 4
    for k, fields in enumerate(per_user):
        for got, stacked in zip(fields, (bundles.Dp, bundles.Dc, w.Wp, w.Wc)):
            assert np.array_equal(got, stacked[k])
    Dp, Dc, Wp, Wc = map(list, zip(*per_user))
    Pp_cat, _, _ = solver.solve_p1(chans.H_hat, chans.sigma_e2, Dp, Wp, ctx.rho, t, 1.0)
    solver.solve_p2(chans.H_hat, chans.sigma_e2, Dc, Wc, Pp_cat, ctx.rho, t, 1.0)


def test_setup_probe_prints_positive_seconds():
    # the probe times importing rsmimo and building a workload's inputs in a
    # fresh interpreter; it exits non-zero if rsmimo loads before its timer
    probe = [sys.executable, str(ROOT / "bench" / "setup_probe.py"), "--workload", "headline", "--seed", "1"]
    proc = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seconds = float(proc.stdout.splitlines()[-1])
    assert 0.0 < seconds < math.inf


def test_sweep_outputs_parse_and_summarize():
    ctx = workloads.prepare(ROOT, "snr_sweep", seed=1)
    grid = replace(ctx.grid, snr_db_grid=ctx.grid.snr_db_grid[:2], draws=1)
    ev = ctx.mods.evaluate
    result = ev.run_experiment(grid)
    rows, _ = workloads.parse_sweep_csv(ev.csv_text(result))
    summary = json.loads(ev.json_summary(result))
    assert workloads.sweep_structure_checks(rows, summary, "in-process sweep", grid) == []


# per-layer metrics that a workload's own traced pass cannot reach; the run
# fills them from probes (channels) or from a small sweep (evaluate, cli)
QUANTIZED_LAYERS = {"channels.random_codebook.ms", "channels.quantize_channel.ms",
                    "channels.quantized_csit_from_channels.ms"}
PROBE_FILLED = {
    "headline": QUANTIZED_LAYERS,
    "limited_feedback": {"channels.sample_estimation_channel.us"},
    "snr_sweep": QUANTIZED_LAYERS,
}


@pytest.mark.parametrize("workload", ["headline", "limited_feedback"])
def test_traced_pass_measures_every_layer_it_reaches(workload):
    # a wrapped name the package no longer calls through its module leaves a
    # per-layer metric null, and the benchmark counts that run as malformed
    ctx = workloads.prepare(ROOT, workload, seed=1)
    values, _, failed, problems, _, tracer = workloads.trace_designs(ctx, 1.0)
    assert problems == []
    assert failed == 0
    assert tracer.absent == []
    own = set(workloads.PER_LAYER_UNITS) - set(workloads.SWEEP_LAYER_METRICS) - PROBE_FILLED[workload]
    assert own <= set(values), sorted(own - set(values))
    assert {name: v for name, v in values.items() if not math.isfinite(v)} == {}


def test_traced_sweep_measures_every_layer_it_reaches(tmp_path):
    # snr_sweep's traced pass: the grid run in-process untraced and traced,
    # then once through the command line. A batched sweep that skips a
    # wrapped name leaves its metric null here.
    ctx = workloads.prepare(ROOT, "snr_sweep", seed=1)
    ctx.out_root = tmp_path
    argv, grid = workloads.sweep_inputs(ctx, workloads.PROBE_SNR_DB, workloads.PROBE_DRAWS, 1)
    values, _, failed, problems, _, tracer = workloads.sweep_layers(ctx, grid, argv)
    assert problems == []
    assert failed == 0
    assert tracer.absent == []
    own = set(workloads.PER_LAYER_UNITS) - PROBE_FILLED["snr_sweep"]
    assert own <= set(values), sorted(own - set(values))
    assert {name: v for name, v in values.items() if not math.isfinite(v)} == {}
