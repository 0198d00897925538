"""Monte Carlo experiment harness: paired draws over SNR and CSIT-quality grids.

Every (grid point, draw) work item derives its own seed from the experiment
seed, so results are identical regardless of how many workers execute them.
Schemes within a draw share the channel realization (paired comparisons).

The share runner, _run_items, runs work items (fn, *args) of any command and
returns each fn(*args). With W = min(workers, items) > 1, the items are dealt
into W interleaved shares, items[w::W]. This process runs share 0; a child
made by os.fork runs each other share, sends its pickled outputs back
through its own pipe and leaves with os._exit. The children inherit the
items, so only outputs cross a pipe, and the outputs are put back in item
order. A share stops at its first failing item; the earliest failing item
is re-raised. A child that dies without sending its outputs raises
WorkerDied, before this process starts its next item of share 0 or, once
share 0 is done, when the child's pipe is read. On an error or a Ctrl-C,
this process kills and reaps every child it has forked. From the main
thread it holds SIGINT over its set-up (loading numpy.random, then forking
and recording every child), over each reap and over its clean-up, and a
child forked there leaves SIGINT to it. os.fork is required for workers > 1.

csv_text and json_summary stamp their text with version_string(), which runs
git once per process, when the first stamp is needed: a run itself starts no
process but its share workers.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import product

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
        if not self.snr_db_grid or not self.sigma_points:
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

    @property
    def sigma_points(self):
        """The sigma_e2 points the grid walks: sigma_e2_grid, or in quantized
        mode one point labelled None, whatever sigma_e2_grid holds."""
        return self.sigma_e2_grid if self.csit == "estimation" else (None,)


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


def draw_channels(cfg: ExperimentConfig, sigma_idx, snr_idx, draw):
    """The channels of one work item and its transmit SNR rho, as (chans, rho).

    The draw is seeded from the experiment seed and the item's grid indices
    alone, so every command sees the same channels for the same item.
    """
    ss = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(sigma_idx, snr_idx, draw))
    rng = np.random.default_rng(ss)
    rho = 10.0 ** (cfg.snr_db_grid[snr_idx] / 10.0)
    sigma_e2 = cfg.sigma_points[sigma_idx]
    if sigma_e2 is None:
        chans, _ = channels.sample_quantized_csit(cfg.M, cfg.N, cfg.K, cfg.bits, rng)
    else:
        chans = channels.sample_estimation_channel(cfg.M, cfg.N, cfg.K, [sigma_e2] * cfg.K, rng)
    return chans, rho


def _run_draw(cfg: ExperimentConfig, sigma_idx, snr_idx, draw):
    """One paired work item: sample channels once, design and score every scheme.

    Where `proposed` starts all-private it is the `rwmmse` design step for
    step, so when both are requested only the first of them is designed and
    scored, and its outcome, solver_seconds included, stands for the other too.
    A design that fails, or whose scored rates are not all finite, is recorded
    as a failure of each scheme it stands for. A ValueError from the draw or a
    design is re-raised naming the item and scheme.
    """
    scheme = None
    snr_db = cfg.snr_db_grid[snr_idx]
    try:
        chans, rho = draw_channels(cfg, sigma_idx, snr_idx, draw)
        all_private = initial_split(rho, max(chans.sigma_e2)) >= 1.0
        made, records, failures = {}, [], []
        for scheme in cfg.schemes:
            design = "rwmmse" if scheme == "proposed" and all_private else scheme
            if design not in made:  # the design's error text, or the DrawRecord fields it measured
                start = time.perf_counter()
                try:
                    P, iters, t_final, hits = design_precoders(
                        scheme, chans.H_hat, chans.sigma_e2, rho, SIGMA_N2, cfg.solver
                    )
                except (RuntimeError, np.linalg.LinAlgError) as exc:
                    made[design] = str(exc)
                else:
                    seconds = time.perf_counter() - start if cfg.timing else 0.0
                    Rc, _, sum_rate = instantaneous_rates(chans.H, P, SIGMA_N2)
                    if not np.isfinite([sum_rate, *Rc]).all():  # a NaN must reach no output
                        made[design] = f"scored rates are not finite: sum rate {sum_rate}, common rates {Rc}"
                    else:
                        made[design] = dict(
                            sum_rate_bits=float(sum_rate),
                            rc_min_bits=float(min(Rc)),
                            iterations=int(iters),
                            t_final=float(t_final),
                            solver_seconds=float(seconds),
                            boundary_hits=int(hits),
                        )
            label = dict(scheme=scheme, snr_db=snr_db, sigma_e2=float(chans.sigma_e2[0]), draw=draw)
            outcome = made[design]
            if isinstance(outcome, str):
                failures.append({**label, "error": outcome})
            else:
                records.append(DrawRecord(**label, **outcome))
    except ValueError as exc:
        sigma_e2 = cfg.sigma_points[sigma_idx]
        grid = f"quantized {cfg.bits} bits" if sigma_e2 is None else f"sigma_e2={sigma_e2}"
        item = f"snr_db={snr_db}, draw={draw}" + (f", scheme={scheme}" if scheme else "")
        raise ValueError(f"{grid}, {item}: {exc}") from exc
    return records, failures


class WorkerDied(RuntimeError):
    """A share worker ended without sending its outputs: killed, or exited early."""


def _run_share(share, poll=lambda: None):
    """fn(*args) for each item (fn, *args) of a share, in order, and the exception
    of its first failing item, which ends the share (None when every item ran).
    poll runs before each item, outside the capture: what it raises ends the run."""
    outputs = []
    for fn, *args in share:
        poll()
        try:
            outputs.append(fn(*args))
        except Exception as exc:
            return outputs, exc
    return outputs, None


@contextmanager
def _sigint_held():
    """Hold SIGINT for the block, whichever thread of the process it reaches: one
    that arrives meanwhile is recorded, and raised again through the handler
    in place before once the block ends. Call it from the main thread only,
    where Python sets and runs signal handlers."""
    held = []
    handler = signal.signal(signal.SIGINT, lambda *args: held.append(args))
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, handler)
        if held:
            signal.raise_signal(signal.SIGINT)


def _fork_share(items, w, W):
    """Fork a child that runs share w of W, items[w::W], and pickles _run_share's
    pair into a pipe; returns (pid, the pipe's read end as a binary file). A
    refused fork raises an OSError of its errno naming the share."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:  # no process to be had: the pipe goes with the error
        os.close(read_fd)
        os.close(write_fd)
        raise OSError(exc.errno, f"cannot fork the worker of share {w} of {W}: {exc.strerror}") from exc
    if pid == 0:  # forked inside _sigint_held, the child keeps its recording SIGINT handler
        status = 1
        try:  # the child never returns into the parent's stack, whatever happens
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump(_run_share(items[w::W]), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_items(items, workers):
    """fn(*args) for every item (fn, *args), in item order, from W interleaved shares.

    A refused fork raises _fork_share's OSError. A child that ends without
    sending its share raises WorkerDied naming the share and how the child
    ended; before each of its own items, this process reaps the children that
    have ended, without waiting for the others. On any error or interrupt, the
    children not yet reaped are killed; every child is reaped before this
    returns. In the main thread, SIGINT is held over the set-up, which loads
    numpy.random (so no item, here or in a child, imports it) and forks and
    records every child, over each reap and over the clean-up that kills and
    reaps what is left. So a Ctrl-C finds in pids every child there is to
    kill and no child that is gone, and no Ctrl-C cuts the clean-up short.
    """
    W = min(workers, len(items))
    pids, pipes = {}, {}  # share -> its child's pid until reaped, and its pipe's read end until read
    hold = _sigint_held if threading.current_thread() is threading.main_thread() else nullcontext

    def reap(shares, flags=0):
        """Reap the children of shares (with os.WNOHANG, only those that have ended);
        raise WorkerDied for one that died."""
        for w in shares:
            with hold():
                pid, status = os.waitpid(pids[w], flags)
                if pid:
                    del pids[w]
            if code := os.waitstatus_to_exitcode(status):  # 0 also for a child that has not ended
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise WorkerDied(f"worker of share {w} of {W} (pid {pid}) {how} before sending its outputs")

    try:
        with hold():
            import numpy.random  # noqa: F401  a Ctrl-C that lands in its extension's init is lost
            for w in range(1, W):
                pids[w], pipes[w] = _fork_share(items, w, W)
        shares = [_run_share(items[0::W], lambda: reap(list(pids), os.WNOHANG))]
        for w in range(1, W):
            with pipes.pop(w) as pipe:  # read to EOF before waitpid: a child blocks on a full pipe until it is read
                data = pipe.read()
            reap(pids.keys() & {w})  # unless a poll has reaped it already
            shares.append(pickle.loads(data))
    finally:
        with hold():
            for pipe in pipes.values():
                pipe.close()
            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failed = [(w + len(outputs) * W, exc) for w, (outputs, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [shares[i % W][0][i // W] for i in range(len(items))]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the full grid; deterministic for a given config regardless of workers."""
    points = product(range(len(cfg.sigma_points)), range(len(cfg.snr_db_grid)), range(cfg.draws))
    items = [(_run_draw, cfg, *point) for point in points]
    outputs = _run_items(items, cfg.workers)
    records = [r for rs, _ in outputs for r in rs]
    failures = [f for _, fs in outputs for f in fs]
    attempted = len(items) * len(cfg.schemes)
    if len(failures) > 0.01 * attempted:
        raise RuntimeError(
            f"{len(failures)} of {attempted} design attempts failed (>1% threshold); "
            f"first failure: {failures[0]}"
        )
    return ExperimentResult(
        config=cfg, records=records, cells=_summarize(cfg, outputs), failures=failures
    )


def _summarize(cfg: ExperimentConfig, outputs):
    """Per-cell statistics in grid order.

    outputs are _run_draw's, in item order, so each grid point's cfg.draws
    outputs lie next to each other; within a cell, records and failures keep
    the order in which the items ran.
    """
    cells = []
    for i, (sigma_e2, snr_db) in enumerate(product(cfg.sigma_points, cfg.snr_db_grid)):
        point = outputs[i * cfg.draws:(i + 1) * cfg.draws]
        for scheme in cfg.schemes:
            sel = [r for rs, _ in point for r in rs if r.scheme == scheme]
            fails = [f for _, fs in point for f in fs if f["scheme"] == scheme]
            rates_arr = np.array([r.sum_rate_bits for r in sel], dtype=float)
            esr, se = (float(np.mean(rates_arr)), 0.0) if rates_arr.size else (None, None)
            if rates_arr.size > 1:
                se = float(np.std(rates_arr, ddof=1) / np.sqrt(rates_arr.size))
            cells.append(
                CellSummary(
                    scheme=scheme,
                    snr_db=snr_db,
                    sigma_e2=sigma_e2,
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
    """The JSON text of every output file: sorted keys, two-space indent, a final newline.
    A NaN or an infinity, which JSON cannot hold, raises a ValueError."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_summary(result: ExperimentResult) -> str:
    return json_text({
        "config": config_fingerprint(result.config),
        "version": version_string(),
        "cells": [asdict(c) for c in result.cells],
        "failures": result.failures,
    })
