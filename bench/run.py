"""Benchmark of rsmimo: design throughput, a CLI SNR sweep and limited feedback.

    python3 bench/run.py --workload headline --seed 1 --seconds 30 --trace 0

prints one JSON object as its last line: whether every output checked out,
how many designs were attempted and failed, and the metrics, end-to-end ones
with --trace 0 and per-layer ones with --trace 1. A record of the run goes to
.bench_out/ at the root of the checkout. See bench/README.md.
"""

import os

# one BLAS/OpenMP thread per process, here and in every child, so that the
# sweep's two pool workers do not oversubscribe two cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("headline", "snr_sweep", "limited_feedback")
END_TO_END_UNITS = {
    "setup_s": "s",
    "draws_per_s": "draws/s",
    "proposed_designs_per_s": "1/s",
    "rwmmse_designs_per_s": "1/s",
    "proposed_design_ms_p50": "ms",
    "proposed_design_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# power of the machine-speed scale in each end-to-end timing: +1 for a time,
# -1 for a rate; peak_rss_mb is not a time and is not scaled
SCALED = {
    "setup_s": 1,
    "draws_per_s": -1,
    "proposed_designs_per_s": -1,
    "rwmmse_designs_per_s": -1,
    "proposed_design_ms_p50": 1,
    "proposed_design_ms_p90": 1,
}
CALIBRATION_REF_S = 0.004  # calibration loop time at the machine speed timings are scaled to
CALIBRATIONS_PER_S = 10
SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60


def machine_record():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        git = head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        git = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "git": git,
        "python": platform.python_version(),
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
    }


class SetupProbes:
    """setup_s: set-ups timed in fresh interpreters, spread over the run.

    One warm-up probe fills the file cache and is not counted. The counted
    ones run between draws or sweeps, one every seconds/SETUP_REPEATS, so
    they sample the machine over the whole run and not over its first
    seconds only. Any still missing at the end run then.
    """

    def __init__(self, workload, seed, seconds):
        self.argv = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed)]
        self.interval = seconds / SETUP_REPEATS
        self.samples = []
        self._probe()
        self.samples.clear()
        self.start = time.perf_counter()

    def _probe(self):
        probe = subprocess.run(self.argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()[-500:]}")
        self.samples.append(float(probe.stdout.strip().splitlines()[-1]))

    def run_due(self):
        """Run the probes whose time has come; called between units of timed work."""
        while (len(self.samples) < SETUP_REPEATS
               and time.perf_counter() - self.start >= self.interval * len(self.samples)):
            self._probe()

    def median(self):
        while len(self.samples) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.samples)


class Calibration:
    """Tracks the machine's speed over a run with a fixed loop that calls no rsmimo code.

    On a shared host the machine runs tens of percent faster or slower over
    minutes, with its neighbours' load. The loop mixes small numpy solves and
    interpreter work, as a design does, and slows in step with it. Timings
    are scaled by CALIBRATION_REF_S / mean loop time, so they report the
    program's speed on a machine where the loop takes CALIBRATION_REF_S.
    Samples are kept at CALIBRATIONS_PER_S per second of run: between draws
    in-process, and from a thread while a sweep subprocess runs. A sample is
    the loop's thread CPU time, so time spent waiting for a CPU the sweep's
    workers hold does not count.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        self.B = np.ones((4, 2))
        self.samples = []
        self.start = time.perf_counter()
        self._sample()

    def _sample(self):
        t0 = time.thread_time()
        acc = 0.0
        for _ in range(300):
            acc += float(np.linalg.solve(self.A, self.B)[0, 0]) + sum(j * j for j in range(20))
        self.samples.append(time.thread_time() - t0)

    def catch_up(self):
        while len(self.samples) < CALIBRATIONS_PER_S * (time.perf_counter() - self.start):
            self._sample()

    @contextlib.contextmanager
    def sampling(self):
        """Keep sampling from a thread while the caller waits on a subprocess."""
        stop = threading.Event()

        def loop():
            while not stop.wait(0.5 / CALIBRATIONS_PER_S):
                self.catch_up()

        worker = threading.Thread(target=loop, daemon=True)
        worker.start()
        try:
            yield
        finally:
            stop.set()
            worker.join()

    def scale(self):
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rsmimo" / "__init__.py").is_file():
        print(f"error: no rsmimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    import checks
    import workloads

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record()}
    metrics = {}
    setup = None if args.trace else SetupProbes(args.workload, args.seed, args.seconds)

    ctx = workloads.prepare(ROOT, args.workload, args.seed)
    ctx.out_root = OUT
    problems = []
    try:
        checks.selftest()
    except checks.SelfTestError as exc:
        problems.append(f"checks self-test: {exc}")

    tracer = None
    if args.trace:
        values, attempted, failed, found, info, tracer = workloads.trace(ctx, args.seconds)
        units = workloads.PER_LAYER_UNITS
        # a layer the package no longer has reads null, never a number
        metrics.update({name: values.get(name) for name in units})
        record["absent"] = sorted(set(units) - set(values)) + tracer.absent
    else:
        calibration = Calibration()

        def between():
            calibration.catch_up()
            setup.run_due()

        if args.workload == "snr_sweep":
            values, attempted, failed, found, info = workloads.run_sweep(
                ctx, args.seconds, between, calibration.sampling)
        else:
            values, attempted, failed, found, info = workloads.run_designs(ctx, args.seconds, between)
        units = END_TO_END_UNITS
        values["setup_s"] = setup.median()
        scale = calibration.scale()
        metrics.update({name: v * scale ** SCALED.get(name, 0) for name, v in values.items()})
        record.update(unscaled=values, scale=scale, setup_samples_s=setup.samples,
                      calibration_samples_s=calibration.samples)
    problems += found
    record["info"] = info
    record["problems"] = problems

    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": None if metrics[name] is None else float(metrics[name]),
                           "unit": units[name]} for name in units},
    }
    record["result"] = result
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if tracer is not None:
        tracer.write(path, record)
    else:
        path.write_text(json.dumps(record, indent=1))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print("run: " + json.dumps({"machine": record["machine"], "info": info,
                                "absent": record.get("absent", []),
                                "record": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
