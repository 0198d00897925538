# Docs tests: the README quick start runs, every demo imports, and the
# top-level exports resolve, so trimming the public surface cannot break them.
from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest

import rsmimo
from rsmimo import evaluate

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs(capsys):
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def test_readme_csv_header_matches_the_columns():
    text = (ROOT / "README.md").read_text()
    header = re.search(r"header row with the columns\s*```\n(.*)\n```", text)
    assert header and header.group(1) == ",".join(evaluate.CSV_COLUMNS)


@pytest.mark.parametrize("path", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the main() guard keeps the demo from running
    assert callable(module.main)


def test_public_names_resolve():
    assert rsmimo.__version__
    for name in rsmimo.__all__:
        assert getattr(rsmimo, name) is not None, name
