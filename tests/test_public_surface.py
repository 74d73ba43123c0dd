"""The public surface of the package is exactly ``gwgamma.__all__``, and
every public function, class or method of ``gwgamma`` has a caller in the
package or a role in README.md (a method may instead be one the benchmark's
layer tracer wraps by name)."""

import ast
import pathlib
import re

import gwgamma

from test_layertrace import load_layertrace

SRC = pathlib.Path(gwgamma.__file__).parent
README = (SRC.parents[1] / "README.md").read_text()


def test_all_is_sorted_unique_and_resolves():
    names = gwgamma.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(gwgamma, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from gwgamma import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(gwgamma.__all__)


def _used_names(node):
    """Names read in code under node: each ast.Name or ast.Attribute, so
    docstrings and imports do not count."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_has_a_caller_or_a_readme_role():
    # a public function or class of a module other than __init__ is used by
    # some other top-level statement of src/, or README names it
    modules = {p.stem: ast.parse(p.read_text()).body for p in SRC.glob("*.py")}
    statements = [(stmt, _used_names(stmt)) for body in modules.values() for stmt in body]
    dead = []
    for module, body in sorted(modules.items()):
        if module == "__init__":
            continue
        for d in body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) or d.name.startswith("_"):
                continue
            used = any(d.name in names for stmt, names in statements if stmt is not d)
            if not used and not re.search(r"\b%s\b" % d.name, README):
                dead.append("%s.%s" % (module, d.name))
    assert dead == []


def test_every_public_method_has_a_use_a_readme_role_or_a_tracer_entry():
    # a public method of a class in src/ is read as an attribute somewhere in
    # src/, or README names it, or the benchmark's layer tracer wraps it by
    # name (bench/layertrace.METHODS; Subgroup.contains and F2Poly.substitute
    # are kept for it alone)
    traced = {(cls, name) for layer in load_layertrace().METHODS.values()
              for cls, names in layer.items() for name in names}
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    attributes = {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    dead = [
        "%s.%s" % (cls.name, d.name)
        for tree in trees
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for d in cls.body
        if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
        and d.name not in attributes and not re.search(r"\b%s\b" % d.name, README)
        and (cls.name, d.name) not in traced
    ]
    assert dead == []


def _imports(tree):
    return [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]


def _element_classes_named(tree):
    """The ring and group element classes a module reads or imports."""
    imported = {alias.asname or alias.name for n in _imports(tree) for alias in n.names}
    return (_used_names(tree) | imported) & {"GroupElement", "RingElement"}


def test_series_module_stands_on_coordinate_rows():
    # the series layer reads the model's group, unit and structure-constant
    # rows as integers: it imports no other gwgamma module and names no ring
    # or group element class
    tree = ast.parse((SRC / "series.py").read_text())
    imports = _imports(tree)
    modules = [n.module or "" for n in imports if isinstance(n, ast.ImportFrom)]
    modules += [alias.name for n in imports if isinstance(n, ast.Import) for alias in n.names]
    assert [n.module for n in imports if getattr(n, "level", 0)] == []
    assert [m for m in modules if m.split(".")[0] == "gwgamma"] == []
    assert _element_classes_named(tree) == set()


def test_filtration_module_stands_on_coefficient_tuples():
    # the gamma-values, the spans and their products are coefficient tuples
    # from the kernel basis on: like the series layer, the filtration names
    # no ring or group element class
    assert _element_classes_named(ast.parse((SRC / "filtration.py").read_text())) == set()


def test_filtration_reads_no_private_model_state():
    # the refusals are names of lambdaring's check table; filtration.py
    # reads no private attribute, so no check logic of its own can grow back
    # beside the table
    tree = ast.parse((SRC / "filtration.py").read_text())
    private = {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and n.attr.startswith("_")}
    assert private == set()


def test_filtration_levels_grow_in_one_routine():
    # the gamma pieces and the Witt images grow in one routine: the graded
    # groups of adjacent levels are computed at exactly one call site
    tree = ast.parse((SRC / "filtration.py").read_text())
    sites = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name) and n.func.id == "relative_quotient_invariants"]
    assert len(sites) == 1


def test_cli_reads_no_private_model_state():
    # the command line writes and reads model files through the public
    # model surface alone (``lambda_on_basis`` for the lambda-series)
    tree = ast.parse((SRC / "cli.py").read_text())
    private = {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and n.attr.startswith("_")
               and not (n.attr.startswith("__") and n.attr.endswith("__"))}
    assert private == set()
