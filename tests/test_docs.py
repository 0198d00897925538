# Docs tests: the README quick start runs, every demo imports, the top-level
# exports resolve and every documented flag exists, so trimming the public
# surface cannot break them.
from __future__ import annotations

import argparse
import importlib.util
import re
from pathlib import Path

import pytest

import rsmimo
from rsmimo import cli, evaluate

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


def test_readme_command_line_flags_are_accepted():
    # a flag on an `rsmimo <command>` line belongs to that command; one in the
    # prose, to every command that takes the shared flags
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Command line\n(.*?)^## ", text, flags=re.MULTILINE | re.DOTALL).group(1)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    named = set()
    for line in section.splitlines():
        command = re.match(r"rsmimo (\w+)", line)
        for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line):
            named.update((c, flag) for c in ([command.group(1)] if command else ["sweep", "converge", "cdf"]))
    assert len(named) > 10
    assert sorted(n for n in named if n[1] not in commands[n[0]]._option_string_actions) == []


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
