"""Monte Carlo experiment harness: paired draws over SNR and CSIT-quality grids.

Every (grid point, draw) work item derives its own seed from the experiment
seed, so results are identical regardless of how many workers execute them.
Schemes within a draw share the channel realization (paired comparisons).
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__, channels
from .baselines import SCHEMES, design_precoders
from .rates import instantaneous_rates
from .solver import SolverConfig, initial_split

SIGMA_N2 = 1.0  # noise power is the reference level; SNR sets rho directly

# the sweep CSV's columns, in order, with the format spec of each value
CSV_FORMAT = {
    "scheme": "",
    "snr_db": ".6g",
    "sigma_e2": ".10g",
    "draw": "",
    "sum_rate_bits": ".10g",
    "rc_min_bits": ".10g",
    "iterations": "",
    "t_final": ".8f",
    "solver_seconds": ".6f",
}
CSV_COLUMNS = tuple(CSV_FORMAT)


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
        for name in ("M", "N", "K", "draws", "seed", "bits", "workers"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        for name in ("snr_db_grid", "sigma_e2_grid"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if not self.snr_db_grid or (self.csit == "estimation" and not self.sigma_e2_grid):
            raise ValueError("SNR and sigma_e2 grids must be non-empty")
        if not all(math.isfinite(v) for v in (*self.snr_db_grid, *self.sigma_e2_grid)):
            raise ValueError("SNR and sigma_e2 grids must hold finite values")
        for snr_db in self.snr_db_grid:
            with np.errstate(over="ignore"):  # numpy's power gives inf where Python's raises
                if not 0.0 < np.float64(10.0) ** (snr_db / 10.0) < math.inf:
                    raise ValueError(f"SNR {snr_db:g} dB puts the transmit power 10^(snr_db/10) out of float range")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme '{s}'; choose from {SCHEMES}")
            if s in self.schemes[:i]:
                raise ValueError(f"scheme '{s}' is named more than once")
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
    rho = 10.0 ** (cfg.snr_db_grid[snr_idx] / 10.0)
    if cfg.csit == "quantized":
        chans, _ = channels.sample_quantized_csit(cfg.M, cfg.N, cfg.K, cfg.bits, rng)
    else:
        sig = [cfg.sigma_e2_grid[sigma_idx]] * cfg.K
        chans = channels.sample_estimation_channel(cfg.M, cfg.N, cfg.K, sig, rng)
    return chans, rho


def _design_and_score(cfg: ExperimentConfig, chans, rho, snr_db, draw, scheme):
    """One scheme's design on one draw: its DrawRecord, or a failure dict."""
    start = time.perf_counter()
    try:
        P, iters, t_final, hits = design_precoders(
            scheme, chans.H_hat, chans.sigma_e2, rho, SIGMA_N2, cfg.solver
        )
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        return {
            "scheme": scheme,
            "snr_db": snr_db,
            "sigma_e2": chans.sigma_e2[0],
            "draw": draw,
            "error": str(exc),
        }
    seconds = time.perf_counter() - start if cfg.timing else 0.0
    Rc, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
    return DrawRecord(
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


def _run_draw(cfg: ExperimentConfig, sigma_idx, snr_idx, draw):
    """One paired work item: sample channels once, design and score every scheme.

    Where `proposed` starts all-private it is the `rwmmse` design step for
    step, so when both are requested the first of them is designed and its
    record or failure, solver_seconds included, stands for the other too.
    A ValueError from the draw or a design is re-raised naming the item and scheme.
    """
    scheme = None
    try:
        chans, rho = draw_channels(cfg, sigma_idx, snr_idx, draw)
        all_private = initial_split(rho, max(chans.sigma_e2)) >= 1.0
        made, records, failures = {}, [], []
        for scheme in cfg.schemes:
            design = "rwmmse" if scheme == "proposed" and all_private else scheme
            if design not in made:
                made[design] = _design_and_score(cfg, chans, rho, cfg.snr_db_grid[snr_idx], draw, scheme)
            outcome = made[design]
            if isinstance(outcome, DrawRecord):
                records.append(replace(outcome, scheme=scheme))
            else:
                failures.append({**outcome, "scheme": scheme})
    except ValueError as exc:
        quantized = f"quantized {cfg.bits} bits"
        grid = f"sigma_e2={cfg.sigma_e2_grid[sigma_idx]}" if cfg.csit == "estimation" else quantized
        item = f"snr_db={cfg.snr_db_grid[snr_idx]}, draw={draw}" + (f", scheme={scheme}" if scheme else "")
        raise ValueError(f"{grid}, {item}: {exc}") from exc
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
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool run
        with ProcessPoolExecutor(max_workers=min(cfg.workers, len(items))) as pool:
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
        label = cfg.sigma_e2_grid[sigma_idx] if cfg.csit == "estimation" else None
        for snr_idx, snr_db in enumerate(cfg.snr_db_grid):
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
    import subprocess  # loaded only to ask git for the commit

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
    except (OSError, subprocess.TimeoutExpired):
        pass
    return __version__


def config_fingerprint(cfg: ExperimentConfig) -> dict:
    """Experiment-defining fields; execution details like worker count excluded."""
    fp = asdict(cfg)
    del fp["workers"]
    return fp


def csv_text(result: ExperimentResult) -> str:
    """Deterministic CSV serialization of the per-draw records."""
    lines = [
        "# config: " + json.dumps(config_fingerprint(result.config), sort_keys=True),
        "# version: " + version_string(),
        ",".join(CSV_COLUMNS),
    ]
    for r in result.records:
        lines.append(",".join(format(getattr(r, col), spec) for col, spec in CSV_FORMAT.items()))
    return "\n".join(lines) + "\n"


def json_summary(result: ExperimentResult) -> str:
    payload = {
        "config": config_fingerprint(result.config),
        "version": version_string(),
        "cells": [asdict(c) for c in result.cells],
        "failures": result.failures,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_csv(result: ExperimentResult, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(csv_text(result))


def write_json(result: ExperimentResult, path):
    with open(path, "w", newline="\n") as fh:
        fh.write(json_summary(result))
