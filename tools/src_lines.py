"""Total and code lines of each module of a gwgamma checkout's ``src/gwgamma``.

    python3 tools/src_lines.py [ROOT]

ROOT is a gwgamma checkout, by default the one holding this file.  A code
line is a line that is not blank, not a comment alone and not inside the
docstring of a module, class or function; a line that holds part of any
other string is code.  The tool prints one row per module, in name order,
the totals, and a row ``tests`` with the totals of the modules directly
under ``tests/``, by the same rule.  Stdlib only.
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


def modules(directory: str) -> list[tuple[str, int, int]]:
    """(name, total lines, code lines) of each module directly in the
    directory, in name order; none when there is no such directory."""
    names = os.listdir(directory) if os.path.isdir(directory) else []
    out = []
    for name in sorted(n for n in names if n.endswith(".py")):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out.append((name, *count(fh.read())))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=ROOT)
    root = os.path.abspath(ap.parse_args(argv).root)
    package = os.path.join(root, "src", "gwgamma")
    if not os.path.isdir(package):
        raise SystemExit("error: %s not found" % package)
    print("%-16s %7s %7s" % ("module", "lines", "code"))
    rows = modules(package)
    for row in rows:
        print("%-16s %7d %7d" % row)
    for label, table in (("total", rows), ("tests", modules(os.path.join(root, "tests")))):
        lines, code = sum(r[1] for r in table), sum(r[2] for r in table)
        print("%-16s %7s %7s" % (label, "{:,}".format(lines), "{:,}".format(code)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
