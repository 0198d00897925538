"""Code lines and tokens per module under src/, for this tree and a git revision.

    python3 tests/src_size.py [REV]

A token is a Python token that is not a comment, a docstring or layout
(newlines, indentation); a code line is a line that holds one. So blank,
comment and docstring lines do not count, and splitting a call over several
lines moves the line count but not the token count. Given REV (any git
revision, for example HEAD~1), it also prints that revision's counts and the
change from it to this tree.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set:
    """(row, col) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def measure(source: str) -> tuple[int, int]:
    """(code lines, tokens) of one Python source."""
    docstrings = _docstring_starts(source)
    lines, tokens = set(), 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        tokens += 1
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines), tokens


def tree_sources(root=ROOT) -> dict:
    """{path under src/: source} of the working tree."""
    src = Path(root) / "src"
    return {p.relative_to(src).as_posix(): p.read_text() for p in sorted(src.rglob("*.py"))}


def rev_sources(rev, root=ROOT) -> dict:
    """{path under src/: source} at a git revision."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout

    names = [n for n in git("ls-tree", "-r", "--name-only", rev, "--", "src").splitlines() if n.endswith(".py")]
    return {n[len("src/"):]: git("show", f"{rev}:{n}") for n in names}


def table(sides: dict) -> list:
    """Text lines of lines/tokens per module for each {label: sources}, with a total row."""
    counts = {label: {name: measure(text) for name, text in srcs.items()} for label, srcs in sides.items()}
    names = sorted(set().union(*counts.values()))
    head = f"{'module':<24}" + "".join(f"{label + ' lines':>18}{label + ' tokens':>18}" for label in counts)
    out = [head]
    for name in [*names, "total"]:
        row = f"{name:<24}"
        for per in counts.values():
            lines, tokens = (map(sum, zip(*per.values())) if name == "total" else per.get(name, (0, 0)))
            row += f"{lines:>18}{tokens:>18}"
        out.append(row)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sides = {argv[0]: rev_sources(argv[0])} if argv else {}
    sides["tree"] = tree_sources()
    print("\n".join(table(sides)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
