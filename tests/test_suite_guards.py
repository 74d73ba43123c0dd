"""Guards on the test suite itself: the mutation catalogue of
``tools/mutants.py`` still applies to the source, each mutated file
parsing; no test module defines one top-level name twice; and what the
test modules share lives in ``tests/reference.py`` alone.

The catalogue's full run copies the checkout once per entry and takes
minutes, so it stays out of this suite; here each entry is only checked to
be applicable as written.  A repeated ``def test_...`` in one module
silently replaces the earlier test, as can happen when two files are
merged.  A test module that imports another runs that module's top level
and ties the two together, the way to an import cycle; and a ``test_*``
function in ``reference.py``, which pytest does not collect, never runs.
"""

import ast
import collections
import os

from reference import ROOT, load

TESTS = os.path.join(ROOT, "tests")


def test_catalogue_entries_apply():
    mutants = load("tools/mutants.py")
    names = [m.name for m in mutants.CATALOGUE]
    assert len(names) >= 20 and len(set(names)) == len(names)
    assert {m.name: mutants.problems(m) for m in mutants.CATALOGUE} == {n: [] for n in names}


def test_catalogue_reports_a_mutant_that_does_not_parse():
    # the import error alone would fail every kill file of such an entry,
    # which proves nothing of the tests: it is reported before any run
    mutants = load("tools/mutants.py")
    old = "if i and any(g):"
    parsed = mutants.Mutant("parses", mutants.FILTRATION, old, "if i:", mutants._tests("filtration"))
    broken = parsed._replace(name="unbalanced", new="if i and any(g:")
    assert mutants.problems(parsed) == []
    [problem] = mutants.problems(broken)
    assert problem.startswith("mutated src/gwgamma/filtration.py does not parse: ")


def test_no_module_defines_a_name_twice():
    repeated = {}
    for name in sorted(os.listdir(TESTS)):
        if name.endswith(".py"):
            tree = parsed(name)
            defs = collections.Counter(
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
            repeated.update({name: sorted(d for d, n in defs.items() if n > 1)})
    assert repeated == dict.fromkeys(repeated, [])


def parsed(name):
    with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def imported_modules(tree):
    """The module each import statement anywhere in the tree names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_no_test_module_imports_another():
    imports = {name: sorted(m for m in imported_modules(parsed(name))
                            if m.split(".")[-1].startswith("test_"))
               for name in os.listdir(TESTS) if name.startswith("test_") and name.endswith(".py")}
    assert len(imports) > 1 and imports == dict.fromkeys(imports, [])


def test_reference_defines_no_test():
    tree = parsed("reference.py")
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert "load" in names and [n for n in names if n.startswith(("test_", "Test"))] == []
