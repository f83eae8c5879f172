"""The code-line counter that sizes each module under ``src/ranksets/``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 11 code lines: the import, the class line, two class-body statements,
# the four lines of the def, the two lines of the assigned string and
# the return.
SOURCE = '''"""Module docstring
over two lines."""

# a comment
import math


class Box:
    """Class docstring."""

    size = 1  # a trailing comment
    "a string that is not the first statement"


def total(
    a,
    b,
):
    """Function
    docstring."""

    text = """an assigned
string"""
    return a + b
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    assert code_lines.code_lines(SOURCE) == 11


def test_every_line_of_a_statement_counts():
    assert code_lines.code_lines("x = (\n    1,\n    2,\n)\n") == 4
    assert code_lines.code_lines('"""Doc."""\nx = """a\nb"""\n') == 2
    assert code_lines.code_lines("# only a comment\n\n") == 0


def test_main_prints_one_row_per_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py",
        "    11  b.py",
        "    12  total",
    ]
