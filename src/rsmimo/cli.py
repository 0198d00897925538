"""Command-line front end: sweeps, convergence traces, CDFs, and the self-test."""

from __future__ import annotations

import gc
import json
import math
import sys
from pathlib import Path

import numpy as np

from .baselines import SCHEMES
from .evaluate import (
    CSIT_MODES,
    SIGMA_N2,
    ExperimentConfig,
    WorkerDied,
    csv_text,
    draw_channels,
    empirical_cdf,
    json_summary,
    json_text,
    run_experiment,
    version_string,
)
from .solver import SolverConfig, run

DEFAULTS = {
    "m": 8,
    "n": 2,
    "k": 4,
    "snr_db": "0:5:40",
    "sigma_e2": "0.1",
    "draws": 200,
    "schemes": ",".join(SCHEMES),
    "seed": 7,
    "max_iters": SolverConfig.max_iters,
    "obj_tol": SolverConfig.obj_tol,
    "out_dir": ".",
    "format": "both",
    "csit": ExperimentConfig.csit,
    "bits": ExperimentConfig.bits,
    "workers": ExperimentConfig.workers,
    "timing": ExperimentConfig.timing,
}
CHOICES = {"format": ("csv", "json", "both"), "csit": CSIT_MODES}
# a config file may give these as JSON lists whose elements have these types
LIST_ELEMENTS = {"snr_db": (int, float), "sigma_e2": (int, float), "schemes": (str,)}
HELP = {
    "snr_db": "grid: start:step:stop or comma list",
    "sigma_e2": "grid: start:step:stop or comma list",
    "schemes": "comma list from: " + ", ".join(SCHEMES),
    "timing": "write zeros in the solver_seconds column for byte-reproducible output",
    "workers": "processes that design the draws of sweep and cdf; converge ignores it and designs in one process",
}


def parse_grid(text):
    """Grid syntax: inclusive 'start:step:stop', comma list, or a single value."""
    ranged = False
    if isinstance(text, (list, tuple)):
        parts = text
    elif ":" in str(text):
        parts, ranged = str(text).split(":"), True
        if len(parts) != 3:
            raise ValueError(f"malformed grid '{text}': expected start:step:stop")
    else:
        parts = [p for p in str(text).split(",") if p.strip() != ""]
    try:
        values = tuple(float(p) for p in parts)
    except (TypeError, ValueError):
        raise ValueError(f"malformed grid '{text}'") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"grid '{text}' holds a non-finite value")
    if not ranged:
        return values
    start, step, stop = values
    if step <= 0 or stop < start:
        raise ValueError(f"malformed grid '{text}': need step > 0 and stop >= start")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _parse_schemes(text):
    if isinstance(text, (list, tuple)):
        return tuple(text)
    return tuple(s.strip() for s in str(text).split(",") if s.strip())


def _add_common(p):
    """One flag per DEFAULTS key, of its default's type; every flag defaults to None."""
    p.add_argument("--config", help="JSON file holding the same keys as the flags")
    for key, default in DEFAULTS.items():
        if type(default) is bool:  # --no-timing, the one switch
            p.add_argument(f"--no-{key}", dest=key, action="store_false", default=None, help=HELP[key])
        else:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, type=type(default), choices=CHOICES.get(key), help=HELP.get(key))


def _resolve(args):
    """Settle each key as: explicit flag, then config-file value, then default.

    out_dir becomes a Path to an existing directory.
    """
    file_cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ValueError(f"--config: no such file '{args.config}'")
        with open(path) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config: '{args.config}' does not hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"--config: unknown keys {sorted(unknown)}")
        file_cfg = {key: _checked(key, value) for key, value in file_cfg.items()}
    resolved = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        resolved[key] = flag if flag is not None else file_cfg.get(key, default)
    resolved["out_dir"] = Path(resolved["out_dir"])
    if not resolved["out_dir"].is_dir():
        raise ValueError(f"--out-dir: '{resolved['out_dir']}' is not an existing directory")
    return resolved


def _checked(key, value):
    """A config-file value of the flag's type."""
    kind = type(DEFAULTS[key])
    if key in LIST_ELEMENTS and isinstance(value, list):
        kinds = LIST_ELEMENTS[key]
        if any(type(v) not in kinds for v in value):
            names = " or ".join(t.__name__ for t in kinds)
            raise ValueError(f"--config: '{key}' list elements must be {names}, got {value!r}")
        return value
    if type(value) is not kind:
        raise ValueError(f"--config: '{key}' must be a {kind.__name__}, got {value!r}")
    if key in CHOICES and value not in CHOICES[key]:
        raise ValueError(f"--config: '{key}' must be one of {CHOICES[key]}, got {value!r}")
    return value


def _experiment_config(res) -> ExperimentConfig:
    solver = SolverConfig(max_iters=res["max_iters"], obj_tol=res["obj_tol"])
    return ExperimentConfig(
        M=res["m"], N=res["n"], K=res["k"],
        snr_db_grid=parse_grid(res["snr_db"]),
        sigma_e2_grid=parse_grid(res["sigma_e2"]),
        draws=res["draws"], schemes=_parse_schemes(res["schemes"]), seed=res["seed"],
        solver=solver, csit=res["csit"], bits=res["bits"],
        workers=res["workers"], timing=res["timing"],
    )


def _one_point(res, command):
    """The experiment config of a one-point command and its (snr_db, sigma_e2).

    The config is built and checked as sweep's is. Then a grid of more than
    one value raises a ValueError naming the command, the flag and the count;
    quantized mode ignores the sigma_e2 grid, and its sigma_e2 is None.
    """
    cfg = _experiment_config(res)
    for flag, grid in (("--snr-db", cfg.snr_db_grid), ("--sigma-e2", cfg.sigma_points)):
        if len(grid) != 1:
            raise ValueError(f"{command} runs at one operating point; {flag} holds {len(grid)} values")
    return cfg, cfg.snr_db_grid[0], cfg.sigma_points[0]


def _write(res, stem, csv, json_doc):
    """Write <stem>.csv, then <stem>.json, into --out-dir, as --format selects."""
    for suffix, text in (("csv", csv), ("json", json_doc)):
        if res["format"] in ("both", suffix):
            path = res["out_dir"] / f"{stem}.{suffix}"
            path.write_text(text, newline="\n")
            print(f"wrote {path}")


def _cmd_sweep(args) -> int:
    res = _resolve(args)
    result = run_experiment(_experiment_config(res))
    for cell in result.cells:
        sig = "quantized" if cell.sigma_e2 is None else f"{cell.sigma_e2:g}"
        esr = "no draws" if cell.esr_bits is None else f"{cell.esr_bits:.3f}±{cell.std_err:.3f} bits"
        print(f"sigma_e2={sig} snr_db={cell.snr_db:g} {cell.scheme}: {esr} ({cell.draws_used} draws, {cell.failures} failed)")
    _write(res, "sweep", csv_text(result), json_summary(result))
    return 0


def _cmd_converge(args) -> int:
    res = _resolve(args)
    cfg, snr, sigma_e2 = _one_point(res, "converge")
    if "proposed" not in cfg.schemes:
        raise ValueError("converge traces the proposed design; --schemes must include proposed")
    traces = []
    iters = []
    for draw in range(cfg.draws):
        chans, rho = draw_channels(cfg, 0, 0, draw)
        st = run(chans.H_hat, chans.sigma_e2, rho, SIGMA_N2, cfg.solver)
        traces.append([float(v) for v in st.objective_trace])
        iters.append(st.iterations)
    payload = {
        "snr_db": snr,
        "sigma_e2": sigma_e2,
        "seed": cfg.seed,
        "version": version_string(),
        "iterations": iters,
        "objective_traces_nats": traces,
    }
    lines = ["run,iteration,objective_nats"]
    for i, tr in enumerate(traces):
        lines.extend(f"{i},{j},{v:.10g}" for j, v in enumerate(tr))
    _write(res, "converge", "\n".join(lines) + "\n", json_text(payload))
    print(
        f"{len(traces)} runs, median {np.median(iters):.0f} iterations, "
        f"max {max(iters)} at snr_db={snr:g}"
    )
    return 0


def _cmd_cdf(args) -> int:
    res = _resolve(args)
    cfg, snr, sigma_e2 = _one_point(res, "cdf")
    result = run_experiment(cfg)
    lines = ["scheme,sum_rate_bits,prob"]
    summary = {}
    for scheme in cfg.schemes:
        samples = sorted(r.sum_rate_bits for r in result.records if r.scheme == scheme)
        cdf = empirical_cdf(samples)
        for x in samples:
            lines.append(f"{scheme},{x:.10g},{float(cdf(x)):.10g}")
        summary[scheme] = {
            "median": float(np.median(samples)),
            "p10": float(np.percentile(samples, 10)),
            "p90": float(np.percentile(samples, 90)),
        }
        print(
            f"{scheme}: median {summary[scheme]['median']:.3f} bits, "
            f"10-90% [{summary[scheme]['p10']:.3f}, {summary[scheme]['p90']:.3f}]"
        )
    payload = {
        "snr_db": snr,
        "sigma_e2": sigma_e2,
        "version": version_string(),
        "summary": summary,
    }
    _write(res, "cdf", "\n".join(lines) + "\n", json_text(payload))
    return 0


def _cmd_selftest(args) -> int:
    from . import selfcheck  # the acceptance battery is loaded by this command only

    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    results = selfcheck.run_all(seed=args.seed, quick=args.quick, workers=args.workers)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def build_parser():
    import argparse  # loaded only when a command line is parsed
    parser = argparse.ArgumentParser(
        prog="rsmimo",
        description="Robust rate-splitting precoding experiments for MU-MIMO downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("sweep", _cmd_sweep, "ergodic sum rate over an SNR grid"),
        ("converge", _cmd_converge, "traces of the proposed design at one operating point"),
        ("cdf", _cmd_cdf, "empirical sum-rate CDF at one operating point"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.add_argument("--quick", action="store_true", help="reduced sizes for a fast pass")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_selftest)
    return parser


def parse_and_run(argv) -> int:
    """Run one command line and return its exit code.

    0 success, 1 self-test failure, 2 invalid usage or configuration or an
    OSError (a file that cannot be written, a worker that cannot be forked),
    3 a numerical failure inside a run or a worker that died.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WorkerDied as exc:  # before RuntimeError, of which it is a kind
        print(f"worker failure: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    code = parse_and_run(sys.argv[1:] if argv is None else argv)
    # every output file is written and closed: move the heap out of reach of
    # the collection at interpreter exit, which would only walk it
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(main())
