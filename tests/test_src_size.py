# Tests of tests/src_size.py: only code counts, and layout moves lines only.
from __future__ import annotations

from src_size import main, measure

SOURCE = '''"""Module docstring: not code."""

# a comment line


def f(x):
    """Function docstring,
    over two lines."""
    y = g(x, 1, 2)  # a trailing comment
    return y


class C:
    "class docstring"
    text = """a string that is data, not a docstring"""
'''


def test_comments_docstrings_and_blank_lines_do_not_count():
    # code lines: def, y =, return, class, text =
    # tokens: def f ( x ) : | y = g ( x , 1 , 2 ) | return y | class C : | text = "..."
    assert measure(SOURCE) == (5, 6 + 10 + 2 + 3 + 3)
    stripped = "def f(x):\n    y = g(x, 1, 2)\n    return y\nclass C:\n    text = '''x'''\n"
    assert measure(stripped) == measure(SOURCE)


def test_splitting_a_call_moves_lines_but_not_tokens():
    one = "y = g(x, 1, 2)\n"
    three = "y = g(\n    x, 1,\n    2)\n"
    assert measure(one) == (1, 10)
    assert measure(three) == (3, 10)


def test_a_multi_line_data_string_counts_every_line_it_spans():
    assert measure('x = """a\nb\nc"""\n') == (3, 3)


def test_report_of_the_working_tree(capsys):
    assert main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "tree", "lines", "tree", "tokens"]
    assert any(line.startswith("rsmimo/solver.py") for line in lines)
    total = lines[-1].split()
    assert total[0] == "total" and int(total[1]) > 0 and int(total[2]) > int(total[1])
