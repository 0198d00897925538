"""Calls per solver sweep, counted exactly, for this tree and a git revision.

    python3 tests/call_counts.py [REV] [--draws 20] [--snr-db 20] [--sigma-e2 0.1]

Every draw is a `headline`-shaped estimation channel (M=8, N=2, K=4; 20 dB
and sigma_e2 = 0.1 unless overridden), the same draws as
tests/paired_designs.py, designed once with each solved scheme. Given REV (any
git revision, for example HEAD~1), the `src/` of that revision is unpacked
from `git archive` into a temporary directory and loaded into this process
beside the package of this working tree, and both sides design every draw.

While a design runs, sys.setprofile counts Python calls by function (`call`
events, which a generator makes at each resumption), C calls by name
(`c_call` events: a numpy ufunc or an operator makes none) and the matrices
that `rates._cholesky` factors. Every count is divided
by the side's sweeps, the sum of `SolverState.iterations`. The counts do not
depend on the host or its load, so a change that removes calls shows exactly
which. For each scheme it prints the totals and one row per function and C
call name, side by side, a `*` marking a row whose sides differ, and a line
that says whether every count matches.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from paired_designs import HERE, K, M, N, SIGMA_N2, load
from sweep_wall import unpack

SCHEMES = ("proposed", "rwmmse")


@dataclass
class Ledger:
    """What one side's designs of one scheme called, summed over the draws."""

    sweeps: int = 0
    python: Counter = field(default_factory=Counter)  # "module.qualname" -> calls
    c: Counter = field(default_factory=Counter)  # C function name -> calls
    factored: int = 0  # matrices rates._cholesky factored


def c_name(fn) -> str:
    """module.qualname of a C function, or the qualname alone for a method (list.append)."""
    module = getattr(fn, "__module__", None)
    return f"{module}.{fn.__qualname__}" if module else fn.__qualname__


def count(baselines, rates, scheme, draws, rho) -> Ledger:
    """The ledger of one side designing each (H_hat, sigma_e2) of draws with scheme."""
    ledger = Ledger()
    cholesky = rates._cholesky.__wrapped__.__code__  # the body under numpy.errstate's wrapper

    def profile(frame, event, arg):
        if event == "call":
            ledger.python[f"{frame.f_globals.get('__name__')}.{frame.f_code.co_qualname}"] += 1
            if frame.f_code is cholesky:
                ledger.factored += math.prod(frame.f_locals["A"].shape[:-2])
        elif event == "c_call" and arg is not sys.setprofile:  # the call that ends each count
            ledger.c[c_name(arg)] += 1

    for H_hat, sigma_e2 in draws:
        sys.setprofile(profile)
        try:
            state = baselines.run(H_hat, sigma_e2, rho, SIGMA_N2, force_sdma=scheme == "rwmmse")
        finally:
            sys.setprofile(None)
        ledger.sweeps += state.iterations
    return ledger


def report(scheme, ledgers: dict) -> list:
    """Text lines of per-sweep counts of one scheme for each {label: Ledger}, side by side."""
    labels = list(ledgers)
    rows = {
        "Python calls": [sum(led.python.values()) for led in ledgers.values()],
        "C calls": [sum(led.c.values()) for led in ledgers.values()],
        "rates._cholesky calls": [led.python["rsmimo.rates._cholesky"] for led in ledgers.values()],
        "matrices factored": [led.factored for led in ledgers.values()],
    }
    for kind, attr in (("py", "python"), ("c", "c")):
        names = set().union(*(getattr(led, attr) for led in ledgers.values()))
        per_name = {name: [getattr(led, attr)[name] for led in ledgers.values()] for name in names}
        for name in sorted(per_name, key=lambda n: (-max(per_name[n]), n)):
            rows[f"{kind} {name}"] = per_name[name]
    sweeps = [led.sweeps for led in ledgers.values()]
    width = max(map(len, rows)) + 2
    out = [f"{scheme}: " + ", ".join(f"{n} sweeps in {label}" for label, n in zip(labels, sweeps)),
           f"  {'per sweep':<{width}}" + "".join(f"{label:>14}" for label in labels)]
    differ = 0
    for name, values in rows.items():
        per_sweep = [v / s for v, s in zip(values, sweeps)]
        mark = "*" if len(set(per_sweep)) > 1 else " "
        differ += mark == "*"
        out.append(f"{mark} {name:<{width}}" + "".join(f"{v:>14.3f}" for v in per_sweep))
    if len(ledgers) > 1:
        out.append(f"{scheme}: " + ("every count identical" if not differ else f"{differ} rows differ"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to count beside this tree")
    ap.add_argument("--draws", type=int, default=20)
    ap.add_argument("--snr-db", type=float, default=20.0)
    ap.add_argument("--sigma-e2", type=float, default=0.1)
    args = ap.parse_args(argv)
    if args.draws < 1:
        ap.error("--draws must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:  # the revision's modules live here while they run
        sides = {args.rev: load(unpack(args.rev, tmp))} if args.rev else {}
        sides["tree"] = load(HERE)
        channels = sides["tree"][1]
        rho = 10.0 ** (args.snr_db / 10.0)
        draws = []
        for d in range(args.draws):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(d,)))
            chans = channels.sample_estimation_channel(M, N, K, [args.sigma_e2] * K, rng)
            draws.append((chans.H_hat, chans.sigma_e2))

        print(f"{args.draws} draws at {args.snr_db:g} dB, sigma_e2 = {args.sigma_e2:g}; this tree: {HERE}"
              + (f", {args.rev}" if args.rev else ""))
        for scheme in SCHEMES:
            ledgers = {label: count(baselines, rates, scheme, draws, rho)
                       for label, (baselines, _, rates) in sides.items()}
            print("\n".join(report(scheme, ledgers)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
