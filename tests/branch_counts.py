"""Count the rare branches of `solver.run` over an `rsmimo sweep` command line (one worker):

    PYTHONPATH=src python3 tests/branch_counts.py --snr-db 1 --sigma-e2 0.8 --draws 4 --seed 7

prints per scheme the P3 solves (interior, low, high), extrapolations (planned, capped at -step_max,
skipped at alpha = -1, clamp-rejected), final rebalances (tried, and rejected for raising the
objective), terminations and failed designs."""

import contextlib
import sys
import tempfile
from collections import Counter, defaultdict
from unittest import mock

from rsmimo import baselines, cli, solver


@contextlib.contextmanager
def counting():
    """Yield {scheme: Counter} of the solver runs in the block; force_sdma runs count as 'rwmmse'."""
    counts, scheme, rebalanced = defaultdict(Counter), ["proposed"], []
    real = {name: getattr(solver, name) for name in ("run", "solve_p3", "_extrapolate", "_all_private")}

    def run(*args, force_sdma=False, **kwargs):
        scheme[0] = "rwmmse" if force_sdma else "proposed"
        counts[scheme[0]]["failed"] += 1  # taken back when the run returns
        rebalanced.clear()
        state = real["run"](*args, force_sdma=force_sdma, **kwargs)
        rejected = bool(rebalanced) and state.t < 1.0
        counts[scheme[0]].update({"failed": -1, f"termination {state.termination}": 1, "final rebalance rejected": rejected})
        return state

    def solve_p3(*args):
        t, flag = real["solve_p3"](*args)
        counts[scheme[0]][f"p3 {flag or 'interior'}"] += 1
        return t, flag

    def extrapolate(*args):
        step = real["_extrapolate"](*args)
        kind = "clamp-rejected" if step is None else "planned" if step[1] is not None else "skipped"
        counts[scheme[0]].update({f"extrapolation {kind}": 1, "extrapolation capped": bool(step) and step[0] == -args[-1]})
        return step

    def all_private(P):  # run calls it only for the final rebalance
        counts[scheme[0]]["final rebalance"] += 1
        rebalanced.append(True)
        return real["_all_private"](P)

    wrappers = dict(run=run, solve_p3=solve_p3, _extrapolate=extrapolate, _all_private=all_private)
    with mock.patch.multiple(solver, **wrappers), mock.patch.object(baselines, "run", run):
        yield counts


def main(argv):
    with counting() as counts, tempfile.TemporaryDirectory() as out:  # the sweep prints its cells too
        code = cli.parse_and_run(["sweep", *argv, "--workers", "1", "--no-timing", "--out-dir", out])
    for scheme, c in counts.items():
        print(f"{scheme}: " + ", ".join(f"{key} {n}" for key, n in sorted(c.items()) if n))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
