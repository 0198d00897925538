"""The benchmark's three workloads: headline, snr_sweep and limited_feedback.

headline and limited_feedback run in this process, one closed-loop caller
designing and scoring every scheme on one channel draw after another.
snr_sweep runs the real `rsmimo sweep` entry point as a subprocess with its
own two-worker process pool. rsmimo is imported inside prepare() only, so the
set-up probe can time that import.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from tracer import DESIGN_PREFIX, Tracer

M, N, K = 8, 2, 4
SNR_DB = 20.0
SIGMA_E2 = 0.1
SIGMA_N2 = 1.0
BITS = 10
SCHEMES = ("proposed", "rwmmse", "mrt")
SOLVED = ("proposed", "rwmmse")  # schemes designed by the iterative solver

# spawn_key prefix per workload, so two workloads never share a draw
WORKLOAD_KEY = {"headline": 1, "snr_sweep": 2, "limited_feedback": 3}
# Draws per second measured once at the reference commit. A traced run makes
# seconds/2 x this rate draws twice, untraced and traced, so that it lasts
# about --seconds and its counts repeat exactly for a given seed and length.
REFERENCE_DRAWS_PER_S = {"headline": 6.0, "limited_feedback": 1.3}

SWEEP_SNR = "0:10:40"
SWEEP_SNR_GRID = (0.0, 10.0, 20.0, 30.0, 40.0)
SWEEP_DRAWS = 8
SWEEP_WORKERS = 2
SWEEP_MIN_ROUNDS = 4  # distinct sweeps pooled by the rate-ordering and saturation checks
SUBPROCESS_TIMEOUT_S = 170
WARM_UP_DRAW = 2**31  # draw index of the untimed warm-up draw, outside every run's range
REPLAY_ITERATES = 64
REPLAY_REPS = 5


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------
def prepare(root: Path, workload: str, seed: int):
    """Import rsmimo from root/src and build the workload's inputs."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = SimpleNamespace(
        **{name: importlib.import_module(f"rsmimo.{name}")
           for name in ("channels", "rates", "solver", "baselines", "evaluate", "cli")}
    )
    ctx = SimpleNamespace(
        workload=workload,
        seed=seed,
        root=root,
        mods=mods,
        rho=10.0 ** (SNR_DB / 10.0),
        cfg=mods.solver.SolverConfig(),
    )
    if workload == "snr_sweep":
        ctx.argv, ctx.grid = sweep_inputs(ctx, SWEEP_SNR, SWEEP_DRAWS, SWEEP_WORKERS)
    return ctx


# --------------------------------------------------------------------------
# in-process design workloads (headline, limited_feedback)
# --------------------------------------------------------------------------
class StateCapture:
    """Keeps the SolverState of the last design by wrapping baselines.run.

    With a tracer, it also logs (scheme, iterations, converged, boundary hits)
    of every design, the scheme being the label of the open design span.
    """

    def __init__(self, baselines, tracer=None):
        self.state = None
        self.log = []
        self._module = baselines
        self._original = getattr(baselines, "run", None)
        if self._original is None:
            raise RuntimeError("rsmimo.baselines.run is gone: objective traces cannot be checked")
        original = self._original

        def capture(*args, **kwargs):
            st = self.state = original(*args, **kwargs)
            if tracer is not None:
                self.log.append((tracer.label, st.iterations, st.converged, len(st.boundary_hits)))
            return st

        baselines.run = capture

    def close(self):
        self._module.run = self._original


@dataclass
class DrawOutcome:
    sample_s: float = 0.0
    design_s: dict = field(default_factory=dict)
    score_s: dict = field(default_factory=dict)
    sum_rate: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)  # scheme -> (iterations, converged, boundary hits)
    failed: int = 0
    sigma_e2: float = 0.0
    problems: list = field(default_factory=list)

    @property
    def seconds(self):
        return self.sample_s + sum(self.design_s.values()) + sum(self.score_s.values())


def _call(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


def one_draw(ctx, capture, draw, tracer=None) -> DrawOutcome:
    """Sample one channel realisation, design every scheme on it and score it."""
    ch, bl, rt = ctx.mods.channels, ctx.mods.baselines, ctx.mods.rates
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=ctx.seed, spawn_key=(WORKLOAD_KEY[ctx.workload], draw))
    )
    out = DrawOutcome()
    if tracer is not None:
        tracer.draw = draw
    t0 = time.perf_counter()
    if ctx.workload == "limited_feedback":
        # the pieces of channels.sample_quantized_csit, in its rng order
        codebooks = [ch.random_codebook(M, N, BITS, rng) for _ in range(K)]
        H = _call(tracer, "channels.complex_gaussian",
                  lambda: [ch.complex_gaussian(rng, (M, N)) for _ in range(K)])
        chans, gamma = ch.quantized_csit_from_channels(H, codebooks)
    else:
        chans = ch.sample_estimation_channel(M, N, K, [SIGMA_E2] * K, rng)
    out.sample_s = time.perf_counter() - t0
    out.sigma_e2 = float(chans.sigma_e2[0])

    precoders = {}
    for scheme in SCHEMES:
        capture.state = None
        t0 = time.perf_counter()
        try:
            P, _, _, _ = _call(tracer, DESIGN_PREFIX + scheme, bl.design_precoders, scheme,
                               chans.H_hat, chans.sigma_e2, ctx.rho, SIGMA_N2, ctx.cfg)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            out.failed += 1
            out.problems.append(f"draw {draw} {scheme}: design failed: {exc}")
            continue
        out.design_s[scheme] = time.perf_counter() - t0
        precoders[scheme] = P
        if scheme in SOLVED:
            st = capture.state
            out.states[scheme] = (st.iterations, st.converged, len(st.boundary_hits))
            out.problems += checks.check_trace(st.objective_trace, f"draw {draw} {scheme}")

    scored = {}
    for scheme, P in precoders.items():
        t0 = time.perf_counter()
        scored[scheme] = rt.instantaneous_rates(chans.H, P, SIGMA_N2)
        out.score_s[scheme] = time.perf_counter() - t0

    # correctness, outside every timed region
    for scheme, P in precoders.items():
        where = f"draw {draw} {scheme}"
        out.problems += checks.check_design(P, ctx.rho, where)
        out.problems += checks.check_rates(chans.H, P, SIGMA_N2, *scored[scheme], where)
        out.sum_rate[scheme] = float(scored[scheme][2])
    if ctx.workload == "limited_feedback":
        out.problems += checks.check_quantization(H, codebooks, chans, gamma, f"draw {draw}")
    return out


def design_loop(ctx, seconds=None, draws=None, tracer=None, warm_up=True, between=None):
    """Draws, one whole round each, until seconds have passed, or exactly `draws` of them.

    between(), if given, runs before each draw, outside its timed parts.
    """
    capture = StateCapture(ctx.mods.baselines)
    try:
        if warm_up:
            one_draw(ctx, capture, WARM_UP_DRAW)  # lazy numpy/LAPACK set-up, not counted
        outcomes = []
        start = time.perf_counter()
        while True:
            if between is not None:
                between()
            outcomes.append(one_draw(ctx, capture, len(outcomes), tracer))
            if draws is not None and len(outcomes) >= draws:
                break
            if draws is None and time.perf_counter() - start >= seconds:
                break
    finally:
        capture.close()
    return outcomes


def end_to_end(draws, seconds, design_seconds, rss_mb):
    """End-to-end metrics from a draw count over seconds and per-scheme design times.

    A quantity with nothing timed reads 0; the run then has a failure or a
    problem and is not correct.
    """
    def rate(count, secs):
        return count / secs if secs > 0 else 0.0

    ms = np.array(design_seconds["proposed"] or [0.0]) * 1e3
    return {
        "draws_per_s": rate(draws, seconds),
        "proposed_designs_per_s": rate(len(design_seconds["proposed"]), sum(design_seconds["proposed"])),
        "rwmmse_designs_per_s": rate(len(design_seconds["rwmmse"]), sum(design_seconds["rwmmse"])),
        "proposed_design_ms_p50": float(np.percentile(ms, 50)),
        "proposed_design_ms_p90": float(np.percentile(ms, 90)),
        "peak_rss_mb": rss_mb,
    }


def draws_per_s(outcomes):
    return len(outcomes) / sum(o.seconds for o in outcomes)


def design_checks(ctx, outcomes):
    problems = [p for o in outcomes for p in o.problems]
    if ctx.workload == "headline":
        full = [o for o in outcomes if len(o.sum_rate) == len(SCHEMES)]
        rate = {s: [o.sum_rate[s] for o in full] for s in SCHEMES}
        problems += checks.check_paired_gain(rate["proposed"], rate["rwmmse"], "headline proposed - rwmmse")
        for s in SOLVED:
            if not np.mean(rate["mrt"]) < np.mean(rate[s]):
                problems.append(f"headline: mrt mean {np.mean(rate['mrt']):.4f} is not below {s}")
    return problems


def counts(outcomes):
    attempted = len(outcomes) * len(SCHEMES)
    return attempted, sum(o.failed for o in outcomes)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def run_designs(ctx, seconds, between):
    outcomes = design_loop(ctx, seconds=seconds, between=between)
    design_seconds = {s: [o.design_s[s] for o in outcomes if s in o.design_s] for s in SOLVED}
    metrics = end_to_end(len(outcomes), sum(o.seconds for o in outcomes), design_seconds, peak_rss_mb())
    attempted, failed = counts(outcomes)
    info = {
        "draws": len(outcomes),
        "designs": {s: sum(s in o.design_s for o in outcomes) for s in SCHEMES},
        "mean_sigma_e2": float(np.mean([o.sigma_e2 for o in outcomes])),
    }
    return metrics, attempted, failed, design_checks(ctx, outcomes), info


# --------------------------------------------------------------------------
# snr_sweep: the rsmimo sweep command line
# --------------------------------------------------------------------------
def _child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def sweep_inputs(ctx, snr_db, draws, workers):
    """The `rsmimo sweep` command line for an SNR grid, and the same grid in-process.

    The in-process grid has one worker and round 0's seed; the command line
    gets --seed and --out-dir per call.
    """
    argv = [
        sys.executable, "-m", "rsmimo.cli", "sweep",
        "--snr-db", snr_db, "--sigma-e2", str(SIGMA_E2),
        "--draws", str(draws), "--workers", str(workers), "--format", "both",
    ]
    grid = ctx.mods.evaluate.ExperimentConfig(
        M=M, N=N, K=K, snr_db_grid=ctx.mods.cli.parse_grid(snr_db), sigma_e2_grid=(SIGMA_E2,),
        draws=draws, schemes=SCHEMES, seed=cli_seed(ctx.seed, 0), workers=1, timing=True,
    )
    return argv, grid


def cli_seed(seed, r):
    """--seed of sweep round r of a run with this seed: distinct rounds see distinct draws."""
    return seed * 1000 + r


def cli_sweep(argv, root, out_dir: Path, seed):
    """Run `rsmimo sweep` once.

    Returns (seconds, returncode, csv text, json dict, stderr, peak RSS in MB).
    The peak RSS comes from wait4 on the sweep process, so it covers that
    process and the pool workers it reaped, and no other child of this one.
    """
    out_dir.mkdir()
    err_path = out_dir / "stderr.txt"
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv + ["--seed", str(seed), "--out-dir", str(out_dir)],
                                env=_child_env(root), stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(SUBPROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    csv_path, json_path = out_dir / "sweep.csv", out_dir / "sweep.json"
    csv_text = csv_path.read_text() if csv_path.exists() else ""
    summary = json.loads(json_path.read_text()) if json_path.exists() else None
    rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return seconds, proc.returncode, csv_text, summary, err_path.read_text(), rss_mb


def parse_sweep_csv(text):
    """Rows of the sweep CSV as dicts, plus the text with the timing column blanked."""
    lines = text.splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",") if body else []
    rows = [dict(zip(header, ln.split(","))) for ln in body[1:]]
    col = header.index("solver_seconds") if "solver_seconds" in header else None
    masked = []
    for ln in lines:
        parts = ln.split(",")
        if col is not None and not ln.startswith("#") and len(parts) == len(header):
            parts[col] = "-"
        masked.append(",".join(parts))
    return rows, "\n".join(masked)


def sweep_structure_checks(rows, summary, where, grid):
    """One sweep's CSV has every row, and each JSON cell is the mean of its rows."""
    expected_rows = len(SCHEMES) * len(grid.snr_db_grid) * grid.draws
    if len(rows) != expected_rows:
        return [f"{where}: {len(rows)} CSV rows, expected {expected_rows}"]
    problems = []
    by_cell = {}
    for r in rows:
        by_cell.setdefault((r["scheme"], float(r["snr_db"])), []).append(float(r["sum_rate_bits"]))
    for cell in summary["cells"]:
        key = (cell["scheme"], float(cell["snr_db"]))
        mine = by_cell.get(key, [])
        if len(mine) != grid.draws or cell["draws_used"] != grid.draws:
            problems.append(f"{where}: cell {key} has {len(mine)} rows, {cell['draws_used']} draws used")
        elif not abs(cell["esr_bits"] - float(np.mean(mine))) <= 1e-8 * (1 + abs(cell["esr_bits"])):
            problems.append(f"{where}: cell {key} esr {cell['esr_bits']!r} is not the mean of its rows")
    if summary.get("failures"):
        problems.append(f"{where}: {len(summary['failures'])} design failures")
    return problems


def sweep_method_checks(rounds_rows):
    """Rate ordering and saturation over the pooled rows of distinct sweeps.

    rounds_rows holds one list of CSV rows per sweep; draws pair up within a
    sweep by their draw index.
    """
    rate = {}
    for r, rows in enumerate(rounds_rows):
        for row in rows:
            rate[(row["scheme"], float(row["snr_db"]), r, int(row["draw"]))] = float(row["sum_rate_bits"])

    def cell(scheme, snr):
        keys = sorted(k[2:] for k in rate if k[:2] == (scheme, snr))
        return [rate[(scheme, snr, *k)] for k in keys]

    problems = []
    for snr in (30.0, 40.0):
        problems += checks.check_paired_gain(cell("proposed", snr), cell("rwmmse", snr),
                                             f"sweep {snr:g} dB proposed - rwmmse")
        for s in SOLVED:
            if not np.mean(cell("mrt", snr)) < np.mean(cell(s, snr)):
                problems.append(f"sweep: mrt is not below {s} at {snr:g} dB")
    esr = {snr: float(np.mean(cell("rwmmse", snr))) for snr in SWEEP_SNR_GRID}
    low, high = esr[10.0] - esr[0.0], esr[40.0] - esr[30.0]
    if not high < 0.35 * low:
        problems.append(f"sweep: rwmmse 30->40 dB slope {high:.3f} is not below 0.35 x {low:.3f}")
    return problems


def run_sweep(ctx, seconds, between, during):
    """Sweeps with a new --seed each until seconds pass, then round 0's seed again.

    The repeat must give the same CSV bytes outside the timing column.
    between() runs before each sweep, outside its timed wall time, and each
    sweep runs inside the context manager during().
    """
    scratch = Path(tempfile.mkdtemp(prefix="sweep-", dir=ctx.out_root))
    rounds, problems = [], []
    try:
        start = time.perf_counter()
        while True:
            distinct = len(rounds)
            repeat = distinct >= SWEEP_MIN_ROUNDS and time.perf_counter() - start >= seconds
            seed = cli_seed(ctx.seed, 0 if repeat else distinct)
            between()
            with during():
                secs, code, text, summary, err, rss_mb = cli_sweep(ctx.argv, ctx.root,
                                                                   scratch / f"round{len(rounds)}", seed)
            where = f"sweep --seed {seed}"
            if code != 0 or summary is None:
                problems.append(f"{where}: exit code {code}: {err.strip()[-500:]}")
                rows, masked = [], ""
            else:
                rows, masked = parse_sweep_csv(text)
                problems += sweep_structure_checks(rows, summary, where, ctx.grid)
            rounds.append((secs, rows, masked, summary, rss_mb))
            if repeat:
                if masked != rounds[0][2]:
                    problems.append(f"{where}: repeated sweep's CSV differs outside the timing column")
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    problems += sweep_method_checks([r[1] for r in rounds[:-1]])

    items = len(SWEEP_SNR_GRID) * SWEEP_DRAWS
    wall = sum(r[0] for r in rounds)
    solver_s = {s: [float(row["solver_seconds"]) for r in rounds for row in r[1] if row["scheme"] == s]
                for s in SOLVED}
    metrics = end_to_end(items * len(rounds), wall, solver_s, max(r[4] for r in rounds))
    attempted = len(rounds) * items * len(SCHEMES)
    failed = sum(len(r[3]["failures"]) for r in rounds if r[3] is not None)
    info = {"rounds": len(rounds), "draws": items * len(rounds), "round_seconds": [r[0] for r in rounds]}
    return metrics, attempted, failed, problems, info


# --------------------------------------------------------------------------
# traced runs
# --------------------------------------------------------------------------
def install_tracer(ctx, tracer, replay):
    """Wrap the package's layer boundaries; returns nothing, records absences."""
    m = ctx.mods
    for attr in ("all_bundles", "weights"):
        tracer.wrap(m.solver, attr, f"rates.{attr}", keep=True)
    tracer.wrap(m.solver, "f1_from_bundles", "rates.f1_from_bundles")
    tracer.wrap(m.solver, "cholesky_solve", "rates.cholesky_solve")
    tracer.wrap(m.solver, "initialize", "solver.initialize")
    tracer.wrap(m.solver, "solve_p3", "solver.solve_p3", after=replay.capture)
    tracer.wrap(m.baselines, "mrt_precoder", "baselines.mrt_precoder")
    tracer.wrap(m.rates, "instantaneous_rates", "rates.instantaneous_rates")
    tracer.wrap(m.evaluate, "instantaneous_rates", "rates.instantaneous_rates")
    tracer.wrap(m.evaluate, "design_precoders", lambda args: DESIGN_PREFIX + args[0])

    def next_draw(args, result):
        tracer.draw += 1

    for attr in ("sample_estimation_channel", "sample_quantized_csit"):
        tracer.wrap(m.channels, attr, f"channels.{attr}",
                    after=next_draw if ctx.workload == "snr_sweep" else None)
    for attr in ("random_codebook", "quantize_channel", "quantized_csit_from_channels"):
        tracer.wrap(m.channels, attr, f"channels.{attr}")
    tracer.count_linalg()


class Replay:
    """Captures solver iterates at each P3 call and times solve_p1/p2/p3 on them.

    run() carries inline copies of P1 and P2, so their times here describe the
    same algebra on the same iterates, not calls that run() itself makes.
    """

    def __init__(self, ctx, tracer):
        self.ctx, self.tracer = ctx, tracer
        self.sets = []
        self.broken = False

    def capture(self, args, result):
        if len(self.sets) >= REPLAY_ITERATES or self.broken:
            return
        try:
            (ab1, b1), (ab2, b2) = self.tracer.last["rates.all_bundles"]
            (_, w1), (_, w2) = self.tracer.last["rates.weights"]
            H_hat, sigma_e2, _, sigma_n2 = ab1
            P_mid = ab2[2]
            rho = args[6]
            Pp_cat = P_mid.private()
            t = float(np.vdot(Pp_cat, Pp_cat).real) / rho
            self.sets.append({
                "solve_p1": (H_hat, sigma_e2, [b.Dp for b in b1], [w.Wp for w in w1], rho, t, sigma_n2),
                "solve_p2": (H_hat, sigma_e2, [b.Dc for b in b2], [w.Wc for w in w2], Pp_cat, rho, t, sigma_n2),
                "solve_p3": tuple(args),
            })
        except (ValueError, TypeError, AttributeError, IndexError):
            self.broken = True

    def timings_us(self):
        out = {}
        for name in ("solve_p1", "solve_p2", "solve_p3"):
            fn = getattr(self.ctx.mods.solver, name, None)
            if fn is None or not self.sets:
                continue
            fn = getattr(fn, "__wrapped__", fn)
            samples = []
            for s in self.sets:
                for _ in range(REPLAY_REPS):
                    t0 = time.perf_counter()
                    fn(*s[name])
                    samples.append(time.perf_counter() - t0)
            out[name] = float(np.median(samples)) * 1e6
        return out


PER_LAYER_UNITS = {
    "rates.all_bundles.us": "us",
    "rates.weights.us": "us",
    "rates.f1_from_bundles.us": "us",
    "rates.cholesky_solve.us": "us",
    "solver.ms_per_sweep.proposed": "ms",
    "solver.ms_per_sweep.rwmmse": "ms",
    "rates.all_bundles.calls_per_sweep.proposed": "calls/sweep",
    "rates.all_bundles.calls_per_sweep.rwmmse": "calls/sweep",
    "solver.linalg_calls_per_sweep.proposed": "calls/sweep",
    "solver.linalg_calls_per_sweep.rwmmse": "calls/sweep",
    "solver.sweeps_per_design.proposed": "sweeps",
    "solver.sweeps_per_design.rwmmse": "sweeps",
    "solver.cap_hits": "count",
    "solver.boundary_hits": "count",
    "solver.solve_p1.us": "us",
    "solver.solve_p2.us": "us",
    "solver.solve_p3.us": "us",
    "solver.initialize.us": "us",
    "channels.sample_estimation_channel.us": "us",
    "channels.random_codebook.ms": "ms",
    "channels.quantize_channel.ms": "ms",
    "channels.quantized_csit_from_channels.ms": "ms",
    "channels.busy_share": "share",
    "rates.instantaneous_rates.us": "us",
    "baselines.mrt_precoder.us": "us",
    "evaluate.items": "count",
    "evaluate.overhead_share": "share",
    "evaluate.csv_text.ms": "ms",
    "evaluate.json_summary.ms": "ms",
    "cli.sweep.s": "s",
    "trace.overhead_share": "share",
}

CHANNEL_SPANS = ("channels.sample_estimation_channel", "channels.sample_quantized_csit",
                 "channels.random_codebook", "channels.complex_gaussian",
                 "channels.quantized_csit_from_channels")
# layers reported as mean self time per call, with the unit of their metric
PER_CALL_SPANS = {
    "rates.all_bundles": "us",
    "rates.weights": "us",
    "rates.f1_from_bundles": "us",
    "rates.cholesky_solve": "us",
    "solver.initialize": "us",
    "channels.sample_estimation_channel": "us",
    "rates.instantaneous_rates": "us",
    "baselines.mrt_precoder": "us",
    "channels.random_codebook": "ms",
    "channels.quantize_channel": "ms",
    "channels.quantized_csit_from_channels": "ms",
}
SWEEP_LAYER_METRICS = ("evaluate.items", "evaluate.overhead_share", "evaluate.csv_text.ms",
                       "evaluate.json_summary.ms", "cli.sweep.s")

# Layers a workload's own pass does not reach are timed on small inputs from
# its seed: one quantized-CSIT draw, PROBE_ESTIMATES estimation-error draws,
# and a PROBE_SNR_DB sweep of PROBE_DRAWS draws with one worker.
PROBE_KEY = 4
PROBE_ESTIMATES = 100
PROBE_SNR_DB = "20"
PROBE_DRAWS = 2


def layer_times(tracer):
    """Mean self time per call of every PER_CALL_SPANS layer the tracer saw."""
    layers = tracer.summary()
    return {f"{span}.{unit}": layers[span]["self_s"] / layers[span]["calls"] * (1e6 if unit == "us" else 1e3)
            for span, unit in PER_CALL_SPANS.items() if span in layers}


def layer_metrics(tracer, replay, states, wall_s):
    """Per-layer values from one traced pass; states holds (scheme, iterations, converged, hits)."""
    layers = tracer.summary()
    values = layer_times(tracer)
    for scheme in SOLVED:
        sweeps = sum(it for s, it, _, _ in states if s == scheme)
        design = layers.get(DESIGN_PREFIX + scheme)
        if not sweeps or design is None:
            continue
        values[f"solver.ms_per_sweep.{scheme}"] = design["total_s"] / sweeps * 1e3
        values[f"solver.sweeps_per_design.{scheme}"] = sweeps / design["calls"]
        values[f"solver.linalg_calls_per_sweep.{scheme}"] = tracer.linalg_calls[scheme] / sweeps
        bundles = tracer.calls_by_label.get(("rates.all_bundles", scheme), 0)
        if bundles:
            values[f"rates.all_bundles.calls_per_sweep.{scheme}"] = bundles / sweeps
    if states:
        values["solver.cap_hits"] = sum(not conv for _, _, conv, _ in states)
        values["solver.boundary_hits"] = sum(h for _, _, _, h in states)
    for name, us in replay.timings_us().items():
        values[f"solver.{name}.us"] = us
    busy = tracer.top_level_total(CHANNEL_SPANS)
    if busy:
        values["channels.busy_share"] = busy / wall_s
    return values


def probe_layers(ctx, values):
    """Times the layers the workload's own pass left unmeasured; adds their metrics to values.

    Returns (attempted, failed, problems, names of the probes run).
    """
    attempted, failed, problems, probes = 0, 0, [], []
    missing = set(PER_LAYER_UNITS) - set(values)
    if {"channels.random_codebook.ms", "channels.sample_estimation_channel.us"} & missing:
        ch = ctx.mods.channels
        tracer = Tracer()
        for attr in ("sample_estimation_channel", "sample_quantized_csit", "random_codebook",
                     "quantize_channel", "quantized_csit_from_channels"):
            tracer.wrap(ch, attr, f"channels.{attr}")
        rng = np.random.default_rng(np.random.SeedSequence(entropy=ctx.seed, spawn_key=(PROBE_KEY,)))
        try:
            if "channels.random_codebook.ms" in missing:
                ch.sample_quantized_csit(M, N, K, BITS, rng)
                probes.append("quantized_csit")
            if "channels.sample_estimation_channel.us" in missing:
                for _ in range(PROBE_ESTIMATES):
                    ch.sample_estimation_channel(M, N, K, [SIGMA_E2] * K, rng)
                probes.append("estimation_channel")
        finally:
            tracer.unwrap()
        for name, v in layer_times(tracer).items():
            values.setdefault(name, v)
    if set(SWEEP_LAYER_METRICS) & missing:
        argv, grid = sweep_inputs(ctx, PROBE_SNR_DB, PROBE_DRAWS, 1)
        sweep_values, attempted, failed, problems, _, _ = sweep_layers(ctx, grid, argv)
        for name in SWEEP_LAYER_METRICS:
            values.setdefault(name, sweep_values[name])
        probes.append("sweep")
    return attempted, failed, problems, probes


def trace_designs(ctx, seconds):
    n = max(1, round(seconds / 2 * REFERENCE_DRAWS_PER_S[ctx.workload]))
    untraced = design_loop(ctx, draws=n)
    tracer = Tracer()
    replay = Replay(ctx, tracer)
    install_tracer(ctx, tracer, replay)
    try:
        traced = design_loop(ctx, draws=n, tracer=tracer, warm_up=False)
    finally:
        tracer.unwrap()
    states = [(scheme, *o.states[scheme]) for o in traced for scheme in o.states]
    wall = sum(o.seconds for o in traced)
    values = layer_metrics(tracer, replay, states, wall)
    traced_dps, untraced_dps = draws_per_s(traced), draws_per_s(untraced)
    values["trace.overhead_share"] = 1.0 - traced_dps / untraced_dps
    attempted, failed = counts(traced + untraced)
    problems = design_checks(ctx, traced) + design_checks(ctx, untraced)
    info = {"draws": n, "traced_draws_per_s": traced_dps, "untraced_draws_per_s": untraced_dps}
    return values, attempted, failed, problems, info, tracer


def trace(ctx, seconds):
    """The workload's traced pass, then probes of the layers it did not reach."""
    if ctx.workload == "snr_sweep":
        values, attempted, failed, problems, info, tracer = sweep_layers(ctx, ctx.grid, ctx.argv)
    else:
        values, attempted, failed, problems, info, tracer = trace_designs(ctx, seconds)
    probe_attempted, probe_failed, probe_problems, info["probes"] = probe_layers(ctx, values)
    return values, attempted + probe_attempted, failed + probe_failed, problems + probe_problems, info, tracer


def sweep_layers(ctx, grid, argv):
    """One untraced and one traced in-process run of the grid, then one CLI sweep of it."""
    ev = ctx.mods.evaluate
    t0 = time.perf_counter()
    plain = ev.run_experiment(grid)
    untraced_wall = time.perf_counter() - t0
    tracer = Tracer()
    replay = Replay(ctx, tracer)
    capture = StateCapture(ctx.mods.baselines, tracer)
    install_tracer(ctx, tracer, replay)
    try:
        t0 = time.perf_counter()
        result = ev.run_experiment(grid)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.unwrap()
        capture.close()

    values = layer_metrics(tracer, replay, capture.log, traced_wall)
    items = len(grid.snr_db_grid) * grid.draws
    busy = tracer.top_level_total([n for n in tracer.names if n.startswith(DESIGN_PREFIX)]
                                  + list(CHANNEL_SPANS) + ["rates.instantaneous_rates"])
    values["evaluate.items"] = items
    values["evaluate.overhead_share"] = 1.0 - busy / traced_wall
    for name in ("csv_text", "json_summary"):
        fn = getattr(ev, name)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn(result)
            samples.append(time.perf_counter() - t0)
        values[f"evaluate.{name}.ms"] = float(np.median(samples)) * 1e3
    values["trace.overhead_share"] = 1.0 - untraced_wall / traced_wall

    problems = []
    scratch = Path(tempfile.mkdtemp(prefix="sweep-", dir=ctx.out_root))
    try:
        secs, code, text, summary, err, _ = cli_sweep(argv, ctx.root, scratch / "round0", grid.seed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values["cli.sweep.s"] = secs
    where = f"traced sweep at {','.join(f'{x:g}' for x in grid.snr_db_grid)} dB"
    in_process = parse_sweep_csv(ev.csv_text(result))[1]
    if parse_sweep_csv(ev.csv_text(plain))[1] != in_process:
        problems.append(f"{where}: traced and untraced in-process CSVs differ")
    if code != 0 or summary is None:
        problems.append(f"{where}: exit code {code}: {err.strip()[-500:]}")
    else:
        rows, masked = parse_sweep_csv(text)
        problems += sweep_structure_checks(rows, summary, where, grid)
        if masked != in_process:
            problems.append(f"{where}: in-process CSV differs from the CLI's outside the timing column")
    attempted = 3 * items * len(SCHEMES)
    failed = len(result.failures) + len(plain.failures) + (len(summary["failures"]) if summary else 0)
    info = {"draws": 3 * items, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall}
    return values, attempted, failed, problems, info, tracer
