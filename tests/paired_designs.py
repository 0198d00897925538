"""Paired in-process timing of two rsmimo checkouts on the same designs.

    python3 tests/paired_designs.py OTHER_ROOT [--draws 80] [--reps 5]

OTHER_ROOT is a checkout whose `src/` holds the package to compare with, for
example a `git archive` of the parent commit unpacked into a directory. Both
packages are loaded into this one process: OTHER_ROOT's and the one in this
working tree. Every draw is a `headline`-shaped estimation channel (M=8, N=2,
K=4; 20 dB and sigma_e2 = 0.1 unless overridden), sampled once and designed
by both sides with each solved scheme. The side that goes first alternates
from draw to draw, and each side designs the draw `--reps` times.

For each scheme it prints the ratio of CPU time per design (this tree over
OTHER_ROOT), the share of designs this tree made faster, and whether every
`SolverState` was equal: precoder bytes, split, objective trace, iterations,
termination, boundary hits and both extrapolation counters. When states
differ, one more line per scheme says how many designs differ, whether their
iterations and terminations agree, and the largest |delta| of the true-channel
sum rate and of the final objective. It exits 1 when any state differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
M, N, K = 8, 2, 4
SIGMA_N2 = 1.0


def load(root):
    """The (baselines, channels, rates) modules of the rsmimo under root/src, imported afresh."""
    src = str(Path(root).resolve() / "src")

    def forget():
        for name in [m for m in sys.modules if m == "rsmimo" or m.startswith("rsmimo.")]:
            del sys.modules[name]

    forget()
    sys.path.insert(0, src)
    try:
        return tuple(importlib.import_module(f"rsmimo.{name}") for name in ("baselines", "channels", "rates"))
    finally:
        sys.path.remove(src)
        forget()  # the modules live on through the references returned


def fingerprint(state):
    """Every field of a SolverState, arrays as bytes."""
    P = state.P
    return (np.asarray(P.Pc).tobytes(), np.asarray(P.Pp).tobytes(), P.rho, state.t,
            tuple(state.objective_trace), state.iterations, state.termination,
            tuple(state.boundary_hits), state.extrapolations, state.extrapolations_accepted)


def compare(this, other, H, rates):
    """(iterations agree, terminations agree, |delta sum rate| in bits on the
    true channels H, |delta final objective| in nats) of two states."""
    sum_rate = [rates.instantaneous_rates(H, st.P, SIGMA_N2)[2] for st in (this, other)]
    return (this.iterations == other.iterations, this.termination == other.termination,
            abs(sum_rate[0] - sum_rate[1]), abs(this.objective_trace[-1] - other.objective_trace[-1]))


def difference_line(scheme, compared, draws):
    """The line that says how the differing designs of one scheme differ."""
    iters, term, d_rate, d_obj = zip(*compared)
    yes = {True: "yes", False: "no"}
    return (f"{scheme}: {len(compared)} of {draws} designs differ; iterations agree {yes[all(iters)]}, "
            f"terminations agree {yes[all(term)]}; max |d sum rate| {max(d_rate):.3g} bits, "
            f"max |d final objective| {max(d_obj):.3g} nats")


def design(baselines, scheme, H_hat, sigma_e2, rho):
    """One design and its CPU seconds."""
    t0 = time.process_time()
    state = baselines.run(H_hat, sigma_e2, rho, SIGMA_N2, force_sdma=scheme == "rwmmse")
    return state, time.process_time() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="checkout whose src/ holds the package to compare with")
    ap.add_argument("--draws", type=int, default=80)
    ap.add_argument("--reps", type=int, default=5, help="designs of each draw per side")
    ap.add_argument("--snr-db", type=float, default=20.0)
    ap.add_argument("--sigma-e2", type=float, default=0.1)
    args = ap.parse_args(argv)
    if args.draws < 1 or args.reps < 1:
        ap.error("--draws and --reps must be at least 1")

    sides = {"other": load(args.other), "this": load(HERE)}
    channels, rates = sides["this"][1:]
    rho = 10.0 ** (args.snr_db / 10.0)
    schemes = ("proposed", "rwmmse")
    seconds = {(s, side): np.zeros(args.draws) for s in schemes for side in sides}
    differ = {scheme: [] for scheme in schemes}  # compare() of each draw whose states differ
    gc.disable()  # no collection pause lands inside one side's timing
    try:
        for d in range(args.draws):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(d,)))
            chans = channels.sample_estimation_channel(M, N, K, [args.sigma_e2] * K, rng)
            order = ("this", "other") if d % 2 else ("other", "this")
            for scheme in schemes:
                prints, states = {}, {}
                for _ in range(args.reps):
                    for side in order:
                        state, cpu = design(sides[side][0], scheme, chans.H_hat, chans.sigma_e2, rho)
                        seconds[scheme, side][d] += cpu
                        prints.setdefault(side, set()).add(fingerprint(state))
                        states[side] = state
                if prints["this"] != prints["other"] or len(prints["this"]) != 1:
                    differ[scheme].append(compare(states["this"], states["other"], chans.H, rates))
            gc.collect()
    finally:
        gc.enable()

    print(f"{args.draws} draws x {args.reps} reps at {args.snr_db:g} dB, sigma_e2 = {args.sigma_e2:g}; "
          f"this tree: {HERE}, other: {Path(args.other).resolve()}")
    print(f"{'scheme':<10}{'cpu ratio':>10}{'faster':>9}  identical")
    for scheme in schemes:
        this, other = seconds[scheme, "this"], seconds[scheme, "other"]
        ratio = this.sum() / other.sum()
        faster = float(np.mean(this < other))
        same = args.draws - len(differ[scheme])
        print(f"{scheme:<10}{ratio:>10.3f}{faster:>9.0%}  {'yes' if not differ[scheme] else 'NO'} ({same}/{args.draws})")
    for scheme in schemes:
        if differ[scheme]:
            print(difference_line(scheme, differ[scheme], args.draws))
    return 1 if any(differ.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
