"""Total and code lines of each module of a gwgamma checkout's ``src/gwgamma``.

    python3 tools/src_lines.py [ROOT]

ROOT is a gwgamma checkout, by default the one holding this file.  A code
line is a line that is not blank, not a comment alone and not inside the
docstring of a module, class or function; a line that holds part of any
other string is code.  The tool prints one row per module, in name order,
and the totals.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# tokens that alone never make a line code
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers the module, class and function docstrings span."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of a module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=ROOT)
    package = os.path.join(os.path.abspath(ap.parse_args(argv).root), "src", "gwgamma")
    if not os.path.isdir(package):
        raise SystemExit("error: %s not found" % package)
    totals = [0, 0]
    print("%-16s %7s %7s" % ("module", "lines", "code"))
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            lines, code = count(fh.read())
        totals[0] += lines
        totals[1] += code
        print("%-16s %7d %7d" % (name, lines, code))
    print("%-16s %7s %7s" % ("total", "{:,}".format(totals[0]), "{:,}".format(totals[1])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
