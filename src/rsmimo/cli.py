"""Command-line front end: sweeps, convergence traces, CDFs, and the self-test."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import selfcheck
from .evaluate import (
    SIGMA_N2,
    ExperimentConfig,
    draw_channels,
    empirical_cdf,
    json_summary,
    run_experiment,
    version_string,
    write_csv,
    write_json,
)
from .solver import SolverConfig, run

DEFAULTS = {
    "m": 8,
    "n": 2,
    "k": 4,
    "snr_db": "0:5:40",
    "sigma_e2": "0.1",
    "draws": 200,
    "schemes": "proposed,rwmmse,mrt",
    "seed": 7,
    "max_iters": 100,
    "obj_tol": 1e-4,
    "bisect_tol": 1e-8,
    "out_dir": ".",
    "format": "both",
    "csit": "estimation",
    "bits": 0,
    "workers": 1,
    "timing": True,
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
        return tuple(str(s) for s in text)
    return tuple(s.strip() for s in str(text).split(",") if s.strip())


def _add_common(p):
    p.add_argument("--config", help="JSON file holding the same keys as the flags")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--snr-db", dest="snr_db", help="grid: start:step:stop or comma list")
    p.add_argument("--sigma-e2", dest="sigma_e2", help="grid: start:step:stop or comma list")
    p.add_argument("--draws", type=int)
    p.add_argument("--schemes", help="comma list from: proposed, rwmmse, mrt")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--obj-tol", dest="obj_tol", type=float)
    p.add_argument("--bisect-tol", dest="bisect_tol", type=float)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--format", choices=("csv", "json", "both"))
    p.add_argument("--csit", choices=("estimation", "quantized"))
    p.add_argument("--bits", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument(
        "--no-timing",
        dest="timing",
        action="store_false",
        default=None,
        help="write zeros in the solver_seconds column for byte-reproducible output",
    )


def _resolve(args):
    """Settle each key as: explicit flag, then config-file value, then default."""
    file_cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ValueError(f"--config: no such file '{args.config}'")
        with open(path) as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"--config: unknown keys {sorted(unknown)}")
    resolved = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        resolved[key] = flag if flag is not None else file_cfg.get(key, default)
    return resolved


def _experiment_config(res) -> ExperimentConfig:
    solver = SolverConfig(
        max_iters=int(res["max_iters"]),
        obj_tol=float(res["obj_tol"]),
        bisect_tol=float(res["bisect_tol"]),
    )
    return ExperimentConfig(
        M=int(res["m"]),
        N=int(res["n"]),
        K=int(res["k"]),
        snr_db_grid=parse_grid(res["snr_db"]),
        sigma_e2_grid=parse_grid(res["sigma_e2"]),
        draws=int(res["draws"]),
        schemes=_parse_schemes(res["schemes"]),
        seed=int(res["seed"]),
        solver=solver,
        csit=str(res["csit"]),
        bits=int(res["bits"]),
        workers=int(res["workers"]),
        timing=bool(res["timing"]),
    )


def _point_config(res) -> ExperimentConfig:
    """The experiment config at the first point of the SNR and sigma_e2 grids."""
    point = {key: parse_grid(res[key])[:1] for key in ("snr_db", "sigma_e2")}
    return _experiment_config({**res, **point})


def _out_dir(res) -> Path:
    out = Path(res["out_dir"])
    if not out.is_dir():
        raise ValueError(f"--out-dir: '{res['out_dir']}' is not an existing directory")
    return out


def _emit(result, out: Path, stem: str, fmt: str):
    written = []
    if fmt in ("csv", "both"):
        write_csv(result, out / f"{stem}.csv")
        written.append(str(out / f"{stem}.csv"))
    if fmt in ("json", "both"):
        write_json(result, out / f"{stem}.json")
        written.append(str(out / f"{stem}.json"))
    return written


def _cmd_sweep(args) -> int:
    res = _resolve(args)
    out = _out_dir(res)
    result = run_experiment(_experiment_config(res))
    for cell in result.cells:
        sig = "quantized" if cell.sigma_e2 is None else f"{cell.sigma_e2:g}"
        print(
            f"sigma_e2={sig} snr_db={cell.snr_db:g} {cell.scheme}: "
            f"{cell.esr_bits:.3f}±{cell.std_err:.3f} bits "
            f"({cell.draws_used} draws, {cell.failures} failed)"
        )
    for path in _emit(result, out, "sweep", res["format"]):
        print(f"wrote {path}")
    return 0


def _cmd_converge(args) -> int:
    res = _resolve(args)
    out = _out_dir(res)
    cfg = _point_config(res)
    snr = cfg.snr_db_grid[0]
    traces = []
    iters = []
    for draw in range(cfg.draws):
        chans, rho = draw_channels(cfg, 0, 0, draw)
        st = run(chans.H_hat, chans.sigma_e2, rho, SIGMA_N2, cfg.solver)
        traces.append([float(v) for v in st.objective_trace])
        iters.append(st.iterations)
    payload = {
        "snr_db": snr,
        "sigma_e2": cfg.sigma_e2_grid[0] if cfg.csit == "estimation" else None,
        "seed": cfg.seed,
        "version": version_string(),
        "iterations": iters,
        "objective_traces_nats": traces,
    }
    fmt = res["format"]
    if fmt in ("json", "both"):
        with open(out / "converge.json", "w", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {out / 'converge.json'}")
    if fmt in ("csv", "both"):
        lines = ["run,iteration,objective_nats"]
        for i, tr in enumerate(traces):
            lines.extend(f"{i},{j},{v:.10g}" for j, v in enumerate(tr))
        with open(out / "converge.csv", "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {out / 'converge.csv'}")
    print(
        f"{len(traces)} runs, median {np.median(iters):.0f} iterations, "
        f"max {max(iters)} at snr_db={snr:g}"
    )
    return 0


def _cmd_cdf(args) -> int:
    res = _resolve(args)
    out = _out_dir(res)
    cfg = _point_config(res)
    result = run_experiment(cfg)
    lines = ["scheme,sum_rate_bits,prob"]
    summary = {}
    for scheme in cfg.schemes:
        samples = sorted(
            r.sum_rate_bits for r in result.records if r.scheme == scheme
        )
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
    fmt = res["format"]
    if fmt in ("csv", "both"):
        with open(out / "cdf.csv", "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {out / 'cdf.csv'}")
    if fmt in ("json", "both"):
        payload = {
            "snr_db": cfg.snr_db_grid[0],
            "sigma_e2": cfg.sigma_e2_grid[0] if cfg.csit == "estimation" else None,
            "version": version_string(),
            "summary": summary,
        }
        with open(out / "cdf.json", "w", newline="\n") as fh:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print(f"wrote {out / 'cdf.json'}")
    return 0


def _cmd_selftest(args) -> int:
    results = selfcheck.run_all(
        seed=args.seed if args.seed is not None else 0,
        quick=args.quick,
        workers=args.workers if args.workers is not None else 1,
    )
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmimo",
        description="Robust rate-splitting precoding experiments for MU-MIMO downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb in (
        ("sweep", _cmd_sweep, "ergodic sum rate over an SNR grid"),
        ("converge", _cmd_converge, "objective traces at one operating point"),
        ("cdf", _cmd_cdf, "empirical sum-rate CDF at one operating point"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("selftest", help="run the built-in verification battery")
    p.add_argument("--quick", action="store_true", help="reduced sizes for a fast pass")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(fn=_cmd_selftest)
    return parser


def parse_and_run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return parse_and_run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
