"""Hypothesis fuzzing of model files through the command line.

Each example starts from the ``builtin -o`` file of a small builtin and
applies one to three mutations: drop a key or an entry, retype a value, nest
a value in a list, lengthen a list (a lambda-series, say), inflate an
integer or shift it by at most 3.  A shifted file still parses, so it
reaches validation and, when that passes, the filtration and special.
``run`` on validate, filtration and special must return 0, 1 or 2 and never
raise.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.cli import run

FUZZ_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

SEEDS = [
    ["gw_point", "--base", "C"],
    ["gw_point", "--base", "R"],
    ["gw_projective", "--base", "C", "--r", "1"],
    ["gw_projective", "--base", "R", "--r", "2"],
    ["gw_projective", "--base", "C", "--r", "3"],
    ["gw_punctured_line"],
    ["gw_punctured_a5", "--f", "2"],
    ["gw_surface_cxp1", "--s", "0"],
    ["gw_surface_cxp1", "--s", "1"],
]

COMMANDS = [
    ["validate"],
    ["filtration", "--max-degree", "4"],
    ["special", "--bound", "2"],
]

KINDS = ["drop", "retype", "nest", "lengthen", "inflate", "shift"]
RETYPED = st.sampled_from([None, True, 1.5, "x", {}, [], {"k": 0}, [[]]])
INFLATED = st.one_of(
    st.integers(-(2 ** 127), 2 ** 127),
    st.sampled_from([2 ** 128 - 1, 2 ** 128, -(2 ** 128), 10 ** 4000]),
)


@pytest.fixture(scope="module")
def seed_docs(tmp_path_factory):
    docs = []
    for n, argv in enumerate(SEEDS):
        path = tmp_path_factory.mktemp("seeds") / ("seed%d.json" % n)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["builtin", *argv, "-o", str(path)]) == 0
        docs.append(json.loads(path.read_text()))
    return docs


def _paths(node, path=()):
    """Every position below `node`, with the value found there."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,), value
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _mutate(draw, doc):
    positions = list(_paths(doc))
    if not positions:
        return
    kind = draw(st.sampled_from(KINDS))
    if kind == "lengthen":
        positions = [p for p in positions if isinstance(p[1], list)] or positions
    elif kind in ("inflate", "shift"):
        positions = [p for p in positions if type(p[1]) is int] or positions
    path, value = draw(st.sampled_from(positions))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if kind == "drop":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(RETYPED)
    elif kind == "nest":
        parent[key] = [value]
    elif kind == "lengthen" and isinstance(value, list):
        filler = value[-1] if value else 0
        value.extend([filler] * draw(st.integers(1, 70)))
    elif kind == "shift" and type(value) is int:
        parent[key] = value + draw(st.integers(-3, 3))
    else:
        parent[key] = draw(INFLATED)


@FUZZ_SETTINGS
@given(
    index=st.integers(0, len(SEEDS) - 1), count=st.integers(1, 3), data=st.data()
)
def test_mutated_model_files_exit_cleanly(seed_docs, tmp_path_factory, index, count, data):
    doc = json.loads(json.dumps(seed_docs[index]))
    for _ in range(count):
        _mutate(data.draw, doc)
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps(doc))
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = run([*argv, str(path)])
        assert code in (0, 1, 2), (argv, doc)
