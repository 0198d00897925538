# Benchmark interface tests: the package still offers every name, shape and
# output format that bench/ relies on, so interface drift fails here rather
# than in the middle of a benchmark run.
from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

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


def test_sweep_outputs_parse_and_summarize():
    ctx = workloads.prepare(ROOT, "snr_sweep", seed=1)
    grid = replace(ctx.grid, snr_db_grid=ctx.grid.snr_db_grid[:2], draws=1)
    ev = ctx.mods.evaluate
    result = ev.run_experiment(grid)
    rows, _ = workloads.parse_sweep_csv(ev.csv_text(result))
    summary = json.loads(ev.json_summary(result))
    assert workloads.sweep_structure_checks(rows, summary, "in-process sweep", grid) == []
