"""Paired wall time of the benchmark's sweep command line: this tree against a git revision.

    python3 tests/sweep_wall.py REV [--pairs 10] [--seed 1]

REV is any git revision, for example HEAD~1; the `src/` of `git archive REV`
is unpacked into a temporary directory. Each pair runs the `snr_sweep`
command line of `bench/` (`rsmimo sweep --snr-db 0:10:40 --sigma-e2 0.1
--draws 8 --workers 2 --format both`) once from REV and once from this tree,
both with the pair's --seed, and the side that runs first alternates from
pair to pair. Both run with one BLAS thread, as in the benchmark. A pair's
wall time runs from starting the interpreter to its exit.

Both sides compile rsmimo on every run, as the benchmark's fresh checkouts
do: each runs from a copy of its src/ without __pycache__ (this tree's src/
is copied too), with PYTHONDONTWRITEBYTECODE=1. numpy and the standard
library keep their cached bytecode.

It prints every pair, each side's median wall time and quartiles, draws/s at
the median, how many pairs this tree won, and whether each pair's two CSVs
match outside the `solver_seconds` column and the version line. It exits 1
when a sweep fails or a pair's CSVs differ.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SNR_DB, SIGMA_E2, DRAWS, WORKERS = "0:10:40", 0.1, 8, 2
ITEMS = 5 * DRAWS  # five SNR points of DRAWS draws each


def sweep_argv(python, out_dir, seed) -> list:
    """The benchmark's sweep command line, writing into out_dir."""
    return [str(python), "-m", "rsmimo.cli", "sweep", "--snr-db", SNR_DB, "--sigma-e2", str(SIGMA_E2),
            "--draws", str(DRAWS), "--workers", str(WORKERS), "--format", "both",
            "--seed", str(seed), "--out-dir", str(out_dir)]


def masked_csv(text: str) -> list:
    """The sweep CSV's lines without the version line and with every solver_seconds value blanked."""
    lines = [line for line in text.splitlines() if not line.startswith("# version:")]
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index("solver_seconds")
    out = lines[: header + 1]
    for line in lines[header + 1:]:
        cells = line.split(",")
        cells[col] = ""
        out.append(",".join(cells))
    return out


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile) of the values."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(pairs) -> list:
    """Summary lines of (rev seconds, tree seconds) pairs; a pair is won by the faster side."""
    lines = []
    for label, side in (("rev", 0), ("tree", 1)):
        q1, med, q3 = quartiles([p[side] for p in pairs])
        lines.append(f"{label}: median {med:.3f} s [{q1:.3f}, {q3:.3f}], {ITEMS / med:.1f} draws/s")
    wins = sum(tree < rev for rev, tree in pairs)
    ratio = quartiles([p[0] for p in pairs])[1] / quartiles([p[1] for p in pairs])[1]
    lines.append(f"tree won {wins}/{len(pairs)} pairs; median draws/s ratio tree/rev {ratio:.3f}")
    return lines


def unpack(rev, dest) -> Path:
    """The src/ of git revision rev, from `git archive`, unpacked under dest; returns dest."""
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return Path(dest)


def copy_src(root: Path, dest: Path) -> Path:
    """root/src copied to dest/src without any __pycache__; returns dest."""
    shutil.copytree(root / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def sweep_env(root: Path) -> dict:
    """The environment of a sweep run from root/src: one BLAS thread, and no bytecode written."""
    return dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                PYTHONDONTWRITEBYTECODE="1")


def timed_sweep(root: Path, out_dir: Path, seed) -> tuple:
    """(wall seconds, CSV text) of one sweep run from root/src."""
    out_dir.mkdir()
    env = sweep_env(root)
    start = time.perf_counter()
    proc = subprocess.run(sweep_argv(sys.executable, out_dir, seed), env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"sweep from {root} exited {proc.returncode}: {proc.stderr.strip()}")
    return seconds, (out_dir / "sweep.csv").read_text()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    pairs, same = [], True
    with tempfile.TemporaryDirectory(prefix="sweep-wall-") as tmp:
        tmp = Path(tmp)
        sides = {"rev": unpack(args.rev, tmp / "rev"), "tree": copy_src(ROOT, tmp / "tree")}
        print("both sides: src/ without __pycache__ and PYTHONDONTWRITEBYTECODE=1, so every run compiles rsmimo")
        for i in range(args.pairs):
            seed = args.seed * 1000 + i
            order = ("rev", "tree") if i % 2 == 0 else ("tree", "rev")
            runs = {side: timed_sweep(sides[side], tmp / f"{i}-{side}", seed) for side in order}
            pairs.append((runs["rev"][0], runs["tree"][0]))
            match = masked_csv(runs["rev"][1]) == masked_csv(runs["tree"][1])
            same &= match
            print(f"pair {i} seed {seed} first {order[0]}: rev {pairs[-1][0]:.3f} s, "
                  f"tree {pairs[-1][1]:.3f} s, CSVs {'match' if match else 'DIFFER'}")
    print("\n".join(report(pairs)))
    print("CSVs match outside solver_seconds in every pair" if same else "CSVs DIFFER in some pair")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
