"""``tools/src_lines.py``: its code-line rule on one source, and its table
and tests row on a stand-in checkout."""

import os
import subprocess
import sys

from reference import ROOT, load

SRC_LINES = os.path.join(ROOT, "tools", "src_lines.py")

# code: the import, the class line, both lines of the assigned string, the
# def line, the return and the two lines of the if; not code: the three
# docstrings, the blank lines and the comment alone
SOURCE = '''"""Module
docstring."""

# a comment alone
import os  # a comment after code


class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self):
        """Function
        docstring."""
        return 1
if os:
    pass
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert load("tools/src_lines.py").count(SOURCE) == (19, 8)


def test_table_rows_and_totals(tmp_path):
    package = tmp_path / "src" / "gwgamma"
    package.mkdir(parents=True)
    (package / "b.py").write_text(SOURCE)
    (package / "a.py").write_text("x = 1\n\n# done\n")
    (package / "notes.txt").write_text("not a module\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_a.py").write_text(SOURCE + "assert True\n")
    (tests / "data").mkdir()
    (tests / "data" / "nested.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, "-B", SRC_LINES, str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split() for line in out] == [
        ["module", "lines", "code"], ["a.py", "3", "1"], ["b.py", "19", "8"],
        ["total", "22", "9"], ["tests", "20", "9"]]
