"""Golden outputs: small `--no-timing` command-line runs pinned byte for byte.

`tests/test_golden.py` reruns each command in `RUNS` in-process through
`cli.parse_and_run` and compares its CSV and JSON with the files in
`tests/golden/`, the version line masked. After a deliberate change of
numbers, regenerate the files with

    PYTHONPATH=src python3 tests/golden_runs.py

It prints what moved against the files it replaces (the report a failing
test shows), then rewrites them.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import re
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

from rsmimo import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
COMMON = ["--no-timing", "--format", "both", "--workers", "1", "--seed", "7"]
ESTIMATION = ["--snr-db", "0:20:60", "--sigma-e2", "0.1,0.9", "--draws", "3"]
# name -> (subcommand and flags, the file stem the subcommand writes)
RUNS = {
    "sweep_estimation": (["sweep", *ESTIMATION], "sweep"),
    "sweep_overloaded": (["sweep", *ESTIMATION, "--m", "4", "--n", "2", "--k", "4"], "sweep"),
    "sweep_quantized": (["sweep", "--csit", "quantized", "--bits", "4", "--snr-db", "0:20:60", "--draws", "3"], "sweep"),
    "converge": (["converge", "--snr-db", "20", "--sigma-e2", "0.1", "--draws", "3"], "converge"),
    "cdf": (["cdf", "--snr-db", "30", "--sigma-e2", "0.1", "--draws", "6"], "cdf"),
}
SUFFIXES = (".csv", ".json")


def mask_version(text: str) -> str:
    """Replace the version (package version and git commit) by a fixed word."""
    text = re.sub(r"^# version: .*$", "# version: masked", text, flags=re.MULTILINE)
    return re.sub(r'^(\s*"version": )".*"', r'\1"masked"', text, flags=re.MULTILINE)


def generate(name: str) -> dict:
    """{suffix: masked text} of one run in `RUNS`."""
    argv, stem = RUNS[name]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.parse_and_run([*argv, *COMMON, "--out-dir", out])
        if code != 0:
            raise RuntimeError(f"{name}: rsmimo {' '.join(argv)} exited {code}")
        return {s: mask_version((Path(out) / (stem + s)).read_text()) for s in SUFFIXES}


def golden(name: str) -> dict:
    return {s: (GOLDEN_DIR / (name + s)).read_text() for s in SUFFIXES}


def _sweep_cells(csv_text: str) -> dict:
    """(scheme, snr_db, sigma_e2) -> column arrays of the rows; quantized cells pool sigma_e2."""
    lines = csv_text.splitlines()
    quantized = '"csit": "quantized"' in lines[0]
    header = lines[2].split(",")
    cells = defaultdict(list)
    for line in lines[3:]:
        row = dict(zip(header, line.split(",")))
        key = (row["scheme"], row["snr_db"], "quantized" if quantized else row["sigma_e2"])
        cells[key].append([float(row[c]) for c in ("sum_rate_bits", "iterations", "t_final")])
    return {key: np.array(rows) for key, rows in cells.items()}


def _sweep_report(old: str, new: str) -> list:
    """Per cell: the ESR change in units of the old cell's SE, iterations and t_final changes."""
    before, after = _sweep_cells(old), _sweep_cells(new)
    lines = [f"    cells added or removed: {sorted(set(before) ^ set(after))}"] if set(before) != set(after) else []
    for key in sorted(set(before) & set(after)):
        b, a = before[key], after[key]
        if b.shape == a.shape and np.array_equal(a, b):
            continue
        if b.shape != a.shape:
            lines.append(f"    {key}: {len(b)} rows before, {len(a)} after")
            continue
        se = b[:, 0].std(ddof=1) / np.sqrt(len(b)) if len(b) > 1 else float("nan")
        d_esr, d_it, d_t = (a - b).mean(axis=0)
        lines.append(
            f"    {key}: ESR {d_esr:+.4g} bits ({d_esr / se:+.3g} SE), "
            f"iterations {d_it:+.3g}, t_final {d_t:+.3g}"
        )
    moved = sum(1 for line in lines if line.startswith("    ("))
    return [f"  {moved} of {len(before)} cells moved", *lines]


def _converge_report(old: str, new: str) -> list:
    before, after = json.loads(old), json.loads(new)
    lines = []
    for i, (tb, ta) in enumerate(zip(before["objective_traces_nats"], after["objective_traces_nats"])):
        if tb != ta:
            lines.append(f"  run {i}: iterations {len(ta) - len(tb):+d} accepted, final objective {ta[-1] - tb[-1]:+.4g} nats")
    return lines


def _cdf_report(old: str, new: str) -> list:
    before, after = json.loads(old)["summary"], json.loads(new)["summary"]
    return [
        f"  {scheme}: median {after[scheme]['median'] - before[scheme]['median']:+.4g} bits"
        for scheme in sorted(set(before) & set(after)) if before[scheme] != after[scheme]
    ]


def report(name: str, old: dict, new: dict) -> list:
    """What changed between two {suffix: text} outputs of run `name`; empty when equal."""
    if old == new:
        return []
    lines = [f"{name}:"]
    for suffix in SUFFIXES:
        o, n = old[suffix].splitlines(), new[suffix].splitlines()
        if o != n:
            ops = [op for op in difflib.SequenceMatcher(None, o, n, autojunk=False).get_opcodes() if op[0] != "equal"]
            out, into = sum(i2 - i1 for _, i1, i2, _, _ in ops), sum(j2 - j1 for _, _, _, j1, j2 in ops)
            config = ", the config line among them" if name.startswith("sweep") and suffix == ".csv" and o[0] != n[0] else ""
            lines.append(f"  {suffix}: {out} of {len(o)} lines replaced by {into}{config}")
    o, n = json.loads(old[".json"]), json.loads(new[".json"])
    keys = sorted(k for k in o.keys() | n.keys() if o.get(k) != n.get(k))
    if keys:
        lines.append(f"  .json top-level keys that differ: {', '.join(keys)}")
    if name.startswith("sweep"):
        return lines + _sweep_report(old[".csv"], new[".csv"])
    if name == "converge":
        return lines + _converge_report(old[".json"], new[".json"])
    return lines + _cdf_report(old[".json"], new[".json"])


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in RUNS:
        new = generate(name)
        if all((GOLDEN_DIR / (name + s)).exists() for s in SUFFIXES):
            print("\n".join(report(name, golden(name), new)) or f"{name}: unchanged")
        for suffix, text in new.items():
            (GOLDEN_DIR / (name + suffix)).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
