# Tests of tests/sweep_wall.py's helpers: the command line, the bytecode setting, the CSV mask, the report
# and the revision unpacker.
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from sweep_wall import ITEMS, copy_src, masked_csv, quartiles, report, sweep_argv, sweep_env, unpack

CSV = """# config: {"seed": 3}
# version: 0.1.0+gabc1234
scheme,snr_db,sigma_e2,draw,sum_rate_bits,rc_min_bits,iterations,t_final,solver_seconds
proposed,0,0.1,0,1.5,0.2,12,0.5,0.012345
mrt,0,0.1,0,1.1,0,0,1,0.000101
"""


def test_sweep_argv_is_the_benchmark_command_line():
    argv = sweep_argv("py", "out", 7)
    assert argv[:4] == ["py", "-m", "rsmimo.cli", "sweep"]
    flags = dict(zip(argv[4::2], argv[5::2]))
    assert flags == {"--snr-db": "0:10:40", "--sigma-e2": "0.1", "--draws": "8", "--workers": "2",
                     "--format": "both", "--seed": "7", "--out-dir": "out"}
    assert ITEMS == 5 * 8


def test_masked_csv_drops_the_version_and_blanks_only_the_timing_column():
    other = CSV.replace("0.1.0+gabc1234", "0.1.0").replace("0.012345", "0.9").replace("0.000101", "0.2")
    assert masked_csv(CSV) == masked_csv(other)
    lines = masked_csv(CSV)
    assert lines[0].startswith("# config:") and not any(ln.startswith("# version:") for ln in lines)
    assert lines[2] == "proposed,0,0.1,0,1.5,0.2,12,0.5,"
    assert masked_csv(CSV) != masked_csv(CSV.replace("1.5", "1.6"))  # a rate is not masked


def test_report_counts_wins_and_takes_medians():
    pairs = [(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.85), (1.0, 1.0)]  # (rev, tree) seconds
    lines = report(pairs)
    assert lines[0] == f"rev: median 1.000 s [1.000, 1.100], {ITEMS / 1.0:.1f} draws/s"
    assert lines[1] == f"tree: median 0.900 s [0.850, 1.000], {ITEMS / 0.9:.1f} draws/s"
    assert lines[2] == "tree won 3/5 pairs; median draws/s ratio tree/rev 1.111"  # a tie counts for neither
    assert quartiles([4, 1, 3, 2]) == pytest.approx((1.75, 2.5, 3.25))


def test_each_side_compiles_rsmimo_on_every_run(tmp_path):
    # a __pycache__ in the tree is not copied, and a run writes none
    package = tmp_path / "tree" / "src" / "rsmimo"
    (package / "__pycache__").mkdir(parents=True)
    (package / "__pycache__" / "__init__.cpython-311.pyc").write_bytes(b"stale")
    (package / "__init__.py").write_text("VALUE = 1\n")
    root = copy_src(tmp_path / "tree", tmp_path / "copy")
    assert sorted(p.name for p in (root / "src" / "rsmimo").iterdir()) == ["__init__.py"]
    env = sweep_env(root)
    assert env["PYTHONDONTWRITEBYTECODE"] == "1" and env["OPENBLAS_NUM_THREADS"] == "1"
    code = "import sys, rsmimo; print(rsmimo.VALUE, sys.dont_write_bytecode)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "1 True\n"
    assert sorted(p.name for p in (root / "src" / "rsmimo").iterdir()) == ["__init__.py"]


def test_unpack_holds_the_src_of_the_revision(tmp_path):
    root = Path(__file__).resolve().parent.parent
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True).returncode:
        pytest.skip("needs a git checkout")
    dest = unpack("HEAD", tmp_path / "rev")
    assert dest == tmp_path / "rev" and [p.name for p in dest.iterdir()] == ["src"]
    committed = subprocess.run(["git", "show", "HEAD:src/rsmimo/__init__.py"], cwd=root, capture_output=True,
                               check=True).stdout
    assert (dest / "src" / "rsmimo" / "__init__.py").read_bytes() == committed
