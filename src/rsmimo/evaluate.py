"""Monte Carlo experiment harness: paired draws over SNR and CSIT-quality grids.

Every (grid point, draw) work item derives its own seed from the experiment
seed, so results are identical regardless of how many workers execute them.
Schemes within a draw share the channel realization (paired comparisons).
"""

from __future__ import annotations

import json
import math
import subprocess
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import channels
from .baselines import SCHEMES, design_precoders
from .rates import instantaneous_rates
from .solver import SolverConfig

SIGMA_N2 = 1.0  # noise power is the reference level; SNR sets rho directly

CSV_COLUMNS = (
    "scheme",
    "snr_db",
    "sigma_e2",
    "draw",
    "sum_rate_bits",
    "rc_min_bits",
    "iterations",
    "t_final",
    "solver_seconds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    M: int
    N: int
    K: int
    snr_db_grid: tuple
    sigma_e2_grid: tuple
    draws: int
    schemes: tuple
    seed: int
    solver: SolverConfig = SolverConfig()
    csit: str = "estimation"
    bits: int = 0
    workers: int = 1
    timing: bool = True

    def __post_init__(self):
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if not self.snr_db_grid or (self.csit == "estimation" and not self.sigma_e2_grid):
            raise ValueError("SNR and sigma_e2 grids must be non-empty")
        if not all(math.isfinite(v) for v in (*self.snr_db_grid, *self.sigma_e2_grid)):
            raise ValueError("SNR and sigma_e2 grids must hold finite values")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme '{s}'; choose from {tuple(SCHEMES)}")
        if self.csit not in ("estimation", "quantized"):
            raise ValueError(f"csit mode must be 'estimation' or 'quantized', got '{self.csit}'")
        if self.csit == "quantized" and self.bits < 1:
            raise ValueError("quantized CSIT requires bits >= 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class DrawRecord:
    scheme: str
    snr_db: float
    sigma_e2: float
    draw: int
    sum_rate_bits: float
    rc_min_bits: float
    iterations: int
    t_final: float
    solver_seconds: float
    boundary_hits: int


@dataclass(frozen=True)
class CellSummary:
    scheme: str
    snr_db: float
    sigma_e2: object  # grid value, or None in quantized mode
    esr_bits: float
    std_err: float
    draws_used: int
    failures: int
    boundary_hits: int
    mean_iterations: float
    mean_solver_seconds: float


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: list
    cells: list
    failures: list


def _sigma_indices(cfg: ExperimentConfig):
    return range(len(cfg.sigma_e2_grid)) if cfg.csit == "estimation" else range(1)


def draw_channels(cfg: ExperimentConfig, sigma_idx, snr_idx, draw):
    """The channels of one work item and its transmit SNR rho, as (chans, rho).

    The draw is seeded from the experiment seed and the item's grid indices
    alone, so every command sees the same channels for the same item.
    """
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(sigma_idx, snr_idx, draw))
    rng = np.random.default_rng(ss)
    rho = 10.0 ** (float(cfg.snr_db_grid[snr_idx]) / 10.0)
    if cfg.csit == "quantized":
        chans, _ = channels.sample_quantized_csit(cfg.M, cfg.N, cfg.K, cfg.bits, rng)
    else:
        sig = float(cfg.sigma_e2_grid[sigma_idx])
        chans = channels.sample_estimation_channel(cfg.M, cfg.N, cfg.K, [sig] * cfg.K, rng)
    return chans, rho


def _run_draw(cfg: ExperimentConfig, sigma_idx, snr_idx, draw):
    """One paired work item: sample channels once, design and score every scheme."""
    chans, rho = draw_channels(cfg, sigma_idx, snr_idx, draw)
    snr_db = float(cfg.snr_db_grid[snr_idx])
    records, failures = [], []
    for scheme in cfg.schemes:
        start = time.perf_counter()
        try:
            P, iters, t_final, hits = design_precoders(
                scheme, chans.H_hat, chans.sigma_e2, rho, SIGMA_N2, cfg.solver
            )
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            failures.append(
                {
                    "scheme": scheme,
                    "snr_db": snr_db,
                    "sigma_e2": chans.sigma_e2[0],
                    "draw": draw,
                    "error": str(exc),
                }
            )
            continue
        seconds = time.perf_counter() - start if cfg.timing else 0.0
        Rc, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
        records.append(
            DrawRecord(
                scheme=scheme,
                snr_db=snr_db,
                sigma_e2=float(chans.sigma_e2[0]),
                draw=draw,
                sum_rate_bits=float(sum_rate),
                rc_min_bits=float(min(Rc)),
                iterations=int(iters),
                t_final=float(t_final),
                solver_seconds=float(seconds),
                boundary_hits=int(hits),
            )
        )
    return records, failures


def _item_args(cfg: ExperimentConfig):
    for sigma_idx in _sigma_indices(cfg):
        for snr_idx in range(len(cfg.snr_db_grid)):
            for draw in range(cfg.draws):
                yield (cfg, sigma_idx, snr_idx, draw)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full grid; deterministic for a given config regardless of workers."""
    items = list(_item_args(cfg))
    if cfg.workers == 1:
        outputs = [_run_draw(*args) for args in items]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_run_draw, *args) for args in items]
            outputs = [f.result() for f in futures]
    records, failures = [], []
    for recs, fails in outputs:
        records.extend(recs)
        failures.extend(fails)
    attempted = len(items) * len(cfg.schemes)
    if len(failures) > 0.01 * attempted:
        raise RuntimeError(
            f"{len(failures)} of {attempted} design attempts failed (>1% threshold); "
            f"first failure: {failures[0]}"
        )
    return ExperimentResult(
        config=cfg, records=records, cells=_summarize(cfg, items, outputs), failures=failures
    )


def _summarize(cfg: ExperimentConfig, items, outputs):
    """Per-cell statistics in grid order.

    Records and failures are grouped in one pass over the work items, keyed
    on the item's grid indices and the scheme; within a cell they keep the
    order in which the items ran.
    """
    groups = {}
    for (_, sigma_idx, snr_idx, _), (recs, fails) in zip(items, outputs):
        for r in recs:
            groups.setdefault((sigma_idx, snr_idx, r.scheme), ([], []))[0].append(r)
        for f in fails:
            groups.setdefault((sigma_idx, snr_idx, f["scheme"]), ([], []))[1].append(f)
    cells = []
    for sigma_idx in _sigma_indices(cfg):
        label = float(cfg.sigma_e2_grid[sigma_idx]) if cfg.csit == "estimation" else None
        for snr_idx in range(len(cfg.snr_db_grid)):
            snr_db = float(cfg.snr_db_grid[snr_idx])
            for scheme in cfg.schemes:
                sel, fails = groups.get((sigma_idx, snr_idx, scheme), ((), ()))
                rates_arr = np.array([r.sum_rate_bits for r in sel], dtype=float)
                esr = float(np.mean(rates_arr)) if rates_arr.size else float("nan")
                se = (
                    float(np.std(rates_arr, ddof=1) / np.sqrt(rates_arr.size))
                    if rates_arr.size > 1
                    else 0.0
                )
                cells.append(
                    CellSummary(
                        scheme=scheme,
                        snr_db=snr_db,
                        sigma_e2=label,
                        esr_bits=esr,
                        std_err=se,
                        draws_used=int(rates_arr.size),
                        failures=len(fails),
                        boundary_hits=int(sum(r.boundary_hits for r in sel)),
                        mean_iterations=float(np.mean([r.iterations for r in sel])) if sel else 0.0,
                        mean_solver_seconds=(
                            float(np.mean([r.solver_seconds for r in sel])) if sel else 0.0
                        ),
                    )
                )
    return cells


def empirical_cdf(samples):
    """Right-continuous empirical distribution function of the samples."""
    arr = np.sort(np.asarray(list(samples), dtype=float))
    if arr.size == 0:
        raise ValueError("empty sample set")

    def cdf(x):
        return np.searchsorted(arr, x, side="right") / arr.size

    return cdf


@lru_cache(maxsize=1)
def version_string() -> str:
    from . import __version__

    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if head.returncode == 0:
            return f"{__version__}+g{head.stdout.strip()}"
    except OSError:
        pass
    return __version__


def config_fingerprint(cfg: ExperimentConfig) -> dict:
    """Experiment-defining fields; execution details like worker count excluded."""
    return {
        "M": cfg.M,
        "N": cfg.N,
        "K": cfg.K,
        "snr_db_grid": [float(x) for x in cfg.snr_db_grid],
        "sigma_e2_grid": [float(x) for x in cfg.sigma_e2_grid],
        "draws": cfg.draws,
        "schemes": list(cfg.schemes),
        "seed": cfg.seed,
        "csit": cfg.csit,
        "bits": cfg.bits,
        "timing": cfg.timing,
        "solver": {
            "max_iters": cfg.solver.max_iters,
            "obj_tol": cfg.solver.obj_tol,
            "bisect_tol": cfg.solver.bisect_tol,
            "t_clamp": cfg.solver.t_clamp,
        },
    }


def csv_text(result: ExperimentResult) -> str:
    """Deterministic CSV serialization of the per-draw records."""
    lines = [
        "# config: " + json.dumps(config_fingerprint(result.config), sort_keys=True),
        "# version: " + version_string(),
        ",".join(CSV_COLUMNS),
    ]
    for r in result.records:
        lines.append(
            f"{r.scheme},{r.snr_db:.6g},{r.sigma_e2:.10g},{r.draw},"
            f"{r.sum_rate_bits:.10g},{r.rc_min_bits:.10g},{r.iterations},"
            f"{r.t_final:.8f},{r.solver_seconds:.6f}"
        )
    return "\n".join(lines) + "\n"


def json_summary(result: ExperimentResult) -> str:
    payload = {
        "config": config_fingerprint(result.config),
        "version": version_string(),
        "cells": [
            {
                "scheme": c.scheme,
                "snr_db": c.snr_db,
                "sigma_e2": c.sigma_e2,
                "esr_bits": c.esr_bits,
                "std_err": c.std_err,
                "draws_used": c.draws_used,
                "failures": c.failures,
                "boundary_hits": c.boundary_hits,
                "mean_iterations": c.mean_iterations,
                "mean_solver_seconds": c.mean_solver_seconds,
            }
            for c in result.cells
        ],
        "failures": result.failures,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_csv(result: ExperimentResult, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(result))


def write_json(result: ExperimentResult, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(json_summary(result))
