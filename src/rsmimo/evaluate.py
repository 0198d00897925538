"""Monte Carlo experiment harness: paired draws over SNR and CSIT-quality grids.

Every (grid point, draw) work item derives its own seed from the experiment
seed, so results are identical regardless of how many workers execute them.
Schemes within a draw share the channel realization (paired comparisons).

With W = min(workers, items) > 1, the items are dealt into W interleaved
shares, items[w::W]. This process designs share 0; a child made by os.fork
designs each other share, sends its pickled outputs back through its own
pipe and leaves with os._exit. The children inherit the config and the
items, so only outputs cross a pipe, and the outputs are put back in item
order. A share stops at its first failing item; the earliest failing item of
the grid is re-raised. A child that dies without sending its outputs raises
WorkerDied, before this process starts its next item of share 0 or, once
share 0 is done, when the child's pipe is read. os.fork is required for
workers > 1.

csv_text and json_summary stamp their text with version_string(), which runs
git once per process, when the first stamp is needed: a run itself starts no
process but its share workers.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import time
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np

from . import __version__, channels
from .baselines import SCHEMES, design_precoders
from .rates import instantaneous_rates
from .solver import SolverConfig, initial_split

SIGMA_N2 = 1.0  # noise power is the reference level; SNR sets rho directly
CSIT_MODES = ("estimation", "quantized")

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
            object.__setattr__(self, name, channels.as_int(name, getattr(self, name)))
        for name in ("snr_db_grid", "sigma_e2_grid"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if self.draws < 1:
            raise ValueError("draws must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        channels.check_dims(self.M, self.N, self.K)
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
        if self.csit not in CSIT_MODES:
            raise ValueError(f"csit mode must be one of {CSIT_MODES}, got '{self.csit}'")
        if self.csit == "quantized" and not 1 <= self.bits <= channels.MAX_CODEBOOK_BITS:
            raise ValueError(f"quantized CSIT requires bits in [1, {channels.MAX_CODEBOOK_BITS}], got {self.bits}")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > 1 and not hasattr(os, "fork"):
            raise ValueError(f"workers={self.workers} needs os.fork, which this platform lacks; use workers=1")


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
    esr_bits: float | None  # None (JSON null), like the other means, for a cell whose every draw failed
    std_err: float | None
    draws_used: int
    failures: int
    boundary_hits: int  # a count: 0 for a cell without draws
    mean_iterations: float | None
    mean_solver_seconds: float | None


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


class WorkerDied(RuntimeError):
    """A share worker ended without sending its outputs: killed, or exited early."""


def _run_share(share, poll=lambda: None):
    """_run_draw's outputs over a share's items in order, and the exception of
    its first failing item, which ends the share (None when every item ran).
    poll runs before each item, outside the capture: what it raises ends the run."""
    outputs = []
    for args in share:
        poll()
        try:
            outputs.append(_run_draw(*args))
        except Exception as exc:
            return outputs, exc
    return outputs, None


def _fork_share(share):
    """Fork a child that runs one share and pickles _run_share's pair into a
    pipe; returns (pid, the pipe's read end as a binary file)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to be had: the pipe goes with the error
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:  # the child never returns into the parent's stack, whatever happens
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_share(share), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_items(items, workers):
    """_run_draw's output for every item, in item order, from W interleaved shares.

    A child that ends without sending its share raises WorkerDied naming the
    share and how the child ended; before each of its own items, this process
    reaps the children that have ended, without waiting for the others. On
    any error or interrupt, the children not yet reaped are killed; every
    child is reaped before this returns.
    """
    W = min(workers, len(items))
    children = {}  # share -> (pid, pipe) until its pipe is read
    statuses = {}  # share -> wait status, once its child is reaped

    def reap(w, flags=0):
        """Reap share w's child if not yet reaped (with os.WNOHANG, only once it has ended);
        raise WorkerDied if it died."""
        pid = children[w][0]
        if w not in statuses:
            done, status = os.waitpid(pid, flags)
            if not done:
                return
            statuses[w] = status
        code = os.waitstatus_to_exitcode(statuses[w])
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise WorkerDied(f"worker of share {w} of {W} (pid {pid}) {how} before sending its outputs")

    def poll():
        for w in children:
            reap(w, os.WNOHANG)

    try:
        for w in range(1, W):
            children[w] = _fork_share(items[w::W])
        shares = [_run_share(items[0::W], poll)]
        for w in range(1, W):
            with children[w][1] as pipe:  # read to EOF before waitpid: a child blocks on a full pipe until it is read
                data = pipe.read()
            reap(w)
            del children[w]
            shares.append(pickle.loads(data))
    finally:
        if children:  # after an error or an interrupt only
            import signal

            for w, (pid, pipe) in children.items():
                pipe.close()
                if w not in statuses:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    failed = [(w + len(outputs) * W, exc) for w, (outputs, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [shares[i % W][0][i // W] for i in range(len(items))]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full grid; deterministic for a given config regardless of workers."""
    items = list(_item_args(cfg))
    outputs = _run_items(items, cfg.workers)
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
                esr, se = (float(np.mean(rates_arr)), 0.0) if rates_arr.size else (None, None)
                if rates_arr.size > 1:
                    se = float(np.std(rates_arr, ddof=1) / np.sqrt(rates_arr.size))
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
                        mean_iterations=float(np.mean([r.iterations for r in sel])) if sel else None,
                        mean_solver_seconds=(
                            float(np.mean([r.solver_seconds for r in sel])) if sel else None
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
    """__version__, plus +g and the git commit when this package is src/rsmimo of a checkout.

    The first call runs `git rev-parse` in the package's directory and waits
    for it (5 s at most); later calls reuse its answer. A copy of the package
    elsewhere in some repository, for example in a virtualenv inside a
    project, gets __version__ alone, as it does without git or outside any
    repository.
    """
    import subprocess  # loaded only to ask git for the commit

    package_dir = os.path.dirname(os.path.realpath(__file__))
    try:
        git = subprocess.run(["git", "rev-parse", "--show-prefix", "--short", "HEAD"], cwd=package_dir,
                             capture_output=True, text=True, timeout=5)  # run kills git at the timeout
    except (OSError, subprocess.TimeoutExpired):
        return __version__
    prefix, _, head = git.stdout.partition("\n")  # the package's path in the repository, then the commit
    checkout = git.returncode == 0 and prefix == "src/rsmimo/"
    return f"{__version__}+g{head.strip()}" if checkout else __version__


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


def json_text(payload) -> str:
    """The JSON text of every output file: sorted keys, two-space indent, a final newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_summary(result: ExperimentResult) -> str:
    return json_text({
        "config": config_fingerprint(result.config),
        "version": version_string(),
        "cells": [asdict(c) for c in result.cells],
        "failures": result.failures,
    })
