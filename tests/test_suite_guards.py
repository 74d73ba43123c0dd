"""Guards on the test suite itself: the mutation catalogue of
``tools/mutants.py`` still applies to the source, each mutated file
parsing, and no test module defines one top-level name twice.

The catalogue's full run copies the checkout once per entry and takes
minutes, so it stays out of this suite; here each entry is only checked to
be applicable as written.  A repeated ``def test_...`` in one module
silently replaces the earlier test, as can happen when two files are
merged.
"""

import ast
import collections
import os

from test_src_lines import ROOT, load

TESTS = os.path.join(ROOT, "tests")


def test_catalogue_entries_apply():
    mutants = load("mutants")
    names = [m.name for m in mutants.CATALOGUE]
    assert len(names) >= 20 and len(set(names)) == len(names)
    assert {m.name: mutants.problems(m) for m in mutants.CATALOGUE} == {n: [] for n in names}


def test_catalogue_reports_a_mutant_that_does_not_parse():
    # the import error alone would fail every kill file of such an entry,
    # which proves nothing of the tests: it is reported before any run
    mutants = load("mutants")
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
            with open(os.path.join(TESTS, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            defs = collections.Counter(
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
            repeated.update({name: sorted(d for d, n in defs.items() if n > 1)})
    assert repeated == dict.fromkeys(repeated, [])
