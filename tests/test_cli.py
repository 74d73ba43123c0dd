"""End-to-end checks of the command-line interface and model file format."""

import hashlib
import inspect
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from gwgamma import cli, lambdaring, series
from gwgamma.abelian import GroupPresentation
from gwgamma.cli import (
    ModelFormatError,
    dump_model,
    format_element,
    format_group,
    model_from_dict,
    model_to_dict,
    parse_model,
    run,
)
from gwgamma.filtration import gamma_filtration
from gwgamma.lambdaring import RingModel
from gwgamma.models import (
    BUILTINS,
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
)
from test_filtration import trivial_model
from test_filtration_oracle import fresh


ROUND_TRIP_CASES = [
    (["builtin", "gw_point", "--base", "C"], gw_point("C")),
    (["builtin", "gw_point", "--base", "R"], gw_point("R")),
    (["builtin", "gw_point_C"], gw_point("C")),
    (["builtin", "gw_point_R"], gw_point("R")),
    (["builtin", "gw_projective", "--base", "C", "--r", "3"], gw_projective("C", 3)),
    (["builtin", "gw_projective", "--base", "R", "--r", "2"], gw_projective("R", 2)),
    (["builtin", "gw_punctured_line"], gw_punctured_line()),
    (["builtin", "gw_punctured_a5", "--f", "3"], gw_punctured_a5(3)),
    (["builtin", "gw_surface_cxp1", "--s", "2"], gw_surface_cxp1(2)),
]


def test_every_builtin_round_trips(tmp_path):
    for argv, expected in ROUND_TRIP_CASES:
        out = tmp_path / ("model_%s.json" % "_".join(argv[1:]).replace("-", ""))
        assert run(argv + ["-o", str(out)]) == 0
        parsed = parse_model(str(out))
        assert model_to_dict(parsed) == model_to_dict(expected), argv


def test_emitted_json_is_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["builtin", "gw_surface_cxp1", "--s", "1", "-o", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert list(doc) == sorted(doc)


def test_builtin_prefix_accepted(tmp_path):
    out = tmp_path / "point.json"
    assert run(["builtin", "builtin:gw_point_C", "-o", str(out)]) == 0


def model_bytes(m):
    return (json.dumps(model_to_dict(m), sort_keys=True, indent=2) + "\n").encode()


def test_dump_leaves_a_file_with_identical_bytes_untouched(tmp_path):
    m = gw_projective("R", 3)
    path = tmp_path / "p3.json"
    dump_model(m, str(path))
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    inode = path.stat().st_ino
    dump_model(m, str(path))
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (inode, 10 ** 9)
    assert path.read_bytes() == model_bytes(m)


@pytest.mark.parametrize("old", ["same length", "shorter", "longer"])
def test_dump_rewrites_a_file_with_other_bytes(tmp_path, old):
    m = gw_projective("R", 3)
    data = model_bytes(m)
    path = tmp_path / "p3.json"
    # a longer old file must lose its tail
    path.write_bytes({"same length": data.replace(b"[", b"(", 1),
                      "shorter": data[: len(data) // 2],
                      "longer": data + b"tail\n"}[old])
    dump_model(m, str(path))
    assert path.read_bytes() == data


def test_dump_to_devnull_and_to_a_directory(tmp_path, capsys):
    assert run(["builtin", "gw_point", "--base", "R", "-o", os.devnull]) == 0
    assert run(["builtin", "gw_point", "--base", "R", "-o", str(tmp_path)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_dump_rewrites_identical_bytes_the_process_may_not_write(tmp_path, monkeypatch):
    # os.access stands in for a read-only mode, which euid 0 would ignore
    m = gw_point("R")
    path = tmp_path / "point.json"
    dump_model(m, str(path))
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    monkeypatch.setattr(os, "access", lambda *args: False)
    dump_model(m, str(path))
    assert path.stat().st_mtime_ns != 10 ** 9
    assert path.read_bytes() == model_bytes(m)


@pytest.mark.skipif(os.geteuid() == 0, reason="under euid 0 every file is writable")
def test_read_only_file_with_identical_bytes_is_refused(tmp_path, capsys):
    path = tmp_path / "point.json"
    argv = ["builtin", "gw_point", "--base", "R", "-o", str(path)]
    assert run(argv) == 0
    path.chmod(0o444)
    assert run(argv) == 2
    assert "cannot write" in capsys.readouterr().err


def test_point_aliases_share_gw_point_and_refuse_base(tmp_path, capsys):
    # gw_point_C and gw_point_R bind the base of gw_point: they return its
    # interned models, and their one flag is the truncation's
    assert BUILTINS["gw_point_C"]() is gw_point("C")
    assert BUILTINS["gw_point_R"]() is gw_point("R")
    assert BUILTINS["gw_point_R"](trunc=8) is gw_point("R", trunc=8)
    for name in ("gw_point_C", "gw_point_R"):
        assert list(inspect.signature(BUILTINS[name]).parameters) == ["trunc"]
        out = tmp_path / "point.json"
        assert run(["builtin", name, "--base", "R", "-o", str(out)]) == 2
        assert "does not accept --base" in capsys.readouterr().err
        assert not out.exists()


def test_unknown_subcommand_and_builtin():
    assert run(["frobnicate"]) == 2
    assert run(["builtin", "no_such_model", "-o", "/tmp/ignored.json"]) == 2
    # flags that the chosen builtin does not understand
    assert run(["builtin", "gw_point", "--r", "4", "-o", "/tmp/ignored.json"]) == 2
    assert run(["builtin", "gw_projective", "--r", "40", "-o", "/tmp/ignored.json"]) == 2
    # parameters outside the accepted range, and the removed --window flag
    assert run(["filtration", "builtin:gw_punctured_a5", "--f", "9"]) == 2
    assert run(["filtration", "builtin:gw_surface_cxp1", "--s", "13"]) == 2
    assert run(["filtration", "builtin:gw_point", "--window", "2"]) == 2


def test_validate_pass_and_parse_errors(tmp_path, capsys):
    good = tmp_path / "good.json"
    assert run(["builtin", "gw_punctured_line", "-o", str(good)]) == 0
    assert run(["validate", str(good)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out

    assert run(["validate", str(tmp_path / "missing.json")]) == 2

    syntax = tmp_path / "syntax.json"
    syntax.write_text("{ not json")
    assert run(["validate", str(syntax)]) == 2

    shape = tmp_path / "shape.json"
    doc = json.loads(good.read_text())
    doc["orders"] = doc["orders"][:-1]
    shape.write_text(json.dumps(doc))
    assert run(["validate", str(shape)]) == 2


def test_validate_names_violated_identity(tmp_path, capsys):
    path = tmp_path / "fault.json"
    assert run(["builtin", "gw_point", "--base", "R", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["lambda"]["L"] = [[1, 0]]
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL lambda^1 is the identity on basis" in out
    # downstream commands refuse the same file with the same exit code
    assert run(["filtration", str(path), "--max-degree", "3"]) == 1


def test_trivial_cyclic_factor_validates(tmp_path, capsys):
    # x generates Z/1, so x = 0 = lambda^1(x); the constructor drops the zero
    # degree of its series, which validate read as a failed lambda^1 check
    path = tmp_path / "trivial_factor.json"
    path.write_text(json.dumps({
        "name": "trivial factor", "basis": ["one", "x"], "orders": [0, 1],
        "unit": [1, 0], "augmentation": [1, 0],
        "mul": [[0, 0, [1, 0]], [0, 1, [0, 1]]],
        "lambda": {"one": [[1, 0]], "x": [[0, 1]]},
    }))
    assert run(["validate", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert run(["filtration", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "exact: yes" in out
    graded = [line for line in out if line.startswith("gr^")]
    assert graded[0] == "gr^0: Z"
    assert len(graded) > 1 and all(line.endswith(": 0") for line in graded[1:])


def test_model_from_dict_reports_key_context():
    base = model_to_dict(gw_point("C"))

    broken = dict(base)
    del broken["unit"]
    with pytest.raises(ModelFormatError, match="unit"):
        model_from_dict(broken)

    broken = dict(base)
    broken["extra"] = 1
    with pytest.raises(ModelFormatError, match="extra"):
        model_from_dict(broken)

    broken = dict(base)
    broken["mul"] = [[1, 0, [0]]]
    with pytest.raises(ModelFormatError, match="mul entry 0"):
        model_from_dict(broken)

    broken = dict(base)
    broken["lambda"] = {"nope": []}
    with pytest.raises(ModelFormatError, match="nope"):
        model_from_dict(broken)

    broken = dict(base)
    broken["augmentation"] = [True]
    with pytest.raises(ModelFormatError, match="augmentation"):
        model_from_dict(broken)


def _without(doc, *keys):
    return {k: v for k, v in doc.items() if k not in keys}


# one edit of the gw_point(R) file (basis one, L; trunc 16; one hyperbolic
# vector) per refusal of model_from_dict and _int_vector, with its message
REFUSALS = [
    (lambda d: [d], "top level: expected an object"),
    (lambda d: {**d, "extra": 1}, "unknown key 'extra'"),
    *[(lambda d, k=key: _without(d, k), "missing key %r" % key)
      for key in ["name", "basis", "orders", "unit", "augmentation", "mul", "lambda"]],
    (lambda d: {**d, "name": 3}, "key name: expected a string"),
    (lambda d: {**d, "basis": []}, "key basis: expected a non-empty list of labels"),
    (lambda d: {**d, "basis": ["one", 2]}, "key basis: expected a non-empty list of labels"),
    (lambda d: {**d, "basis": ["one", "one"]}, "key basis: duplicate labels"),
    (lambda d: {**d, "basis": ["b%d" % n for n in range(65)]},
     "key basis: 65 labels, more than 64"),
    (lambda d: {**d, "orders": "00"}, "key orders: expected a list"),
    (lambda d: {**d, "orders": [0]}, "key orders: expected 2 integers, got 1"),
    (lambda d: {**d, "orders": [0, True]}, "key orders: non-integer entry True"),
    (lambda d: {**d, "orders": [0, 2 ** 128]},
     "key orders: entry of 39 digits, not below 2^128 in absolute value"),
    (lambda d: {**d, "orders": [0, -1]}, "key orders: negative entry"),
    (lambda d: {**d, "unit": [1, None]}, "key unit: non-integer entry None"),
    (lambda d: {**d, "augmentation": [1, 1.5]}, "key augmentation: non-integer entry 1.5"),
    (lambda d: {**d, "mul": {}}, "key mul: expected a list"),
    (lambda d: {**d, "mul": [[0, 0]]}, "mul entry 0: expected [i, j, coefficients]"),
    (lambda d: {**d, "mul": [[0, "1", [0, 1]]]}, "mul entry 0: indices must be integers"),
    (lambda d: {**d, "mul": [[0, False, [1, 0]]]}, "mul entry 0: indices must be integers"),
    (lambda d: {**d, "mul": [[cli._LongInteger("9" * 5000), 0, [1, 0]]]},
     "mul entry 0: indices must be integers"),
    (lambda d: {**d, "mul": [[1, 0, [0, 1]]]}, "mul entry 0: need 0 <= i <= j < 2"),
    (lambda d: {**d, "mul": [[0, 0, [1, 0]], [0, 0, [1, 0]]]},
     "mul entry 1: duplicate pair (0, 0)"),
    (lambda d: {**d, "mul": [[0, 0, [1]]]}, "key mul entry 0: expected 2 integers, got 1"),
    (lambda d: {**d, "trunc": 0}, "key trunc: expected an integer in 1..64, got 0"),
    (lambda d: {**d, "trunc": True}, "key trunc: expected an integer in 1..64, got True"),
    (lambda d: {**d, "lambda": []}, "key lambda: expected an object"),
    (lambda d: {**d, "lambda": {**d["lambda"], "nope": []}},
     "key lambda: unknown basis label 'nope'"),
    (lambda d: {**d, "lambda": {"one": [[1, 0]]}}, "key lambda: missing series for 'L'"),
    (lambda d: {**d, "lambda": {"one": [[1, 0]], "L": 5}}, "lambda[L]: expected a list"),
    (lambda d: {**d, "lambda": {"one": [[1, 0]], "L": [[0, 1]] * 17}},
     "lambda[L]: 17 terms, more than trunc 16"),
    (lambda d: {**d, "lambda": {"one": [[1, 0]], "L": [[0, 1], [0, "x"]]}},
     "key lambda[L] degree 2: non-integer entry 'x'"),
    (lambda d: {**d, "basis": ["one", "a%d"], "lambda": {"one": [[1, 0]], "a%d": [[0, None]]}},
     "key lambda[a%d] degree 1: non-integer entry None"),
    (lambda d: {**d, "hyperbolic": {"a": 1}}, "key hyperbolic: expected a list"),
    (lambda d: {**d, "hyperbolic": [[1, 1], [1]]},
     "key hyperbolic entry 1: expected 2 integers, got 1"),
    # two faults: the one checked first is named
    (lambda d: {**d, "orders": [0, -1], "unit": [1]}, "key orders: negative entry"),
    (lambda d: {**d, "trunc": 0, "lambda": []}, "key trunc: expected an integer in 1..64, got 0"),
    (lambda d: {**d, "lambda": {"one": [[1, 0]], "L": [[0, None]] * 17}},
     "lambda[L]: 17 terms, more than trunc 16"),
    (lambda d: {**_without(d, "name"), "extra": 1}, "unknown key 'extra'"),
]


@pytest.mark.parametrize("edit,message", REFUSALS, ids=[m for _, m in REFUSALS])
def test_refusal_messages(edit, message):
    with pytest.raises(ModelFormatError) as info:
        model_from_dict(edit(model_to_dict(gw_point("R"))))
    assert str(info.value) == message


def test_missing_keys_refused_in_one_order_under_every_hash_seed():
    doc = model_to_dict(gw_projective("C", 2))
    del doc["basis"], doc["augmentation"]
    script = (
        "import json, sys\n"
        "from gwgamma.cli import ModelFormatError, model_from_dict\n"
        "try:\n"
        "    model_from_dict(json.load(sys.stdin))\n"
        "except ModelFormatError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", script], input=json.dumps(doc),
                             capture_output=True, text=True, env=env, check=True).stdout
        assert out == "missing key 'basis'\n", seed


def test_boolean_mul_index_rejected(tmp_path, capsys):
    path = tmp_path / "bool_index.json"
    assert run(["builtin", "gw_point", "--base", "R", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    pos = next(n for n, (i, j, _) in enumerate(doc["mul"]) if (i, j) == (0, 1))
    doc["mul"][pos][1] = True
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "mul entry %d: indices must be integers" % pos in err


def test_deeply_nested_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    assert run(["validate", str(path)]) == 2
    assert "%s: JSON nested too deeply" % path in capsys.readouterr().err


def test_undecodable_file_names_path(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9"}')
    assert run(["validate", str(path)]) == 2
    assert "cannot read %s: 'utf-8' codec" % path in capsys.readouterr().err


def test_overlong_integer_named_by_key(tmp_path, capsys):
    text = json.dumps(model_to_dict(gw_point("R")), sort_keys=True)
    path = tmp_path / "long_trunc.json"
    path.write_text(text.replace('"trunc": 16', '"trunc": 1' + "0" * 4999))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "key trunc: expected an integer in 1..64, got <integer of 5000 digits>" in err


def _rank2_file(tmp_path, big):
    """Basis one, x at trunc 64, with `big` as the torsion order of x
    (orders) or as the coefficient of x in x*x (mul): an integer, or the
    digits of one too long for json.dumps, written in by text replacement."""
    doc = model_to_dict(trivial_model(2))
    doc["trunc"] = 64
    if "orders" in big:
        doc["orders"] = [0, 123456789]
    else:
        doc["mul"].append([1, 1, [0, 123456789]])
    path = tmp_path / "rank2.json"
    path.write_text(json.dumps(doc).replace("123456789", str(*big.values())))
    return path


@pytest.mark.parametrize(
    "big,command,key",
    [
        ({"orders": 10 ** 4000}, "validate", "key orders"),
        ({"orders": 10 ** 4000}, "filtration", "key orders"),
        ({"mul": 10 ** 4000}, "special", "key mul entry 2"),
        # too long for int(): the parse keeps its digit count
        ({"orders": "1" + "0" * 4999}, "validate", "key orders"),
        ({"mul": "-" + "9" * 5000}, "special", "key mul entry 2"),
    ],
)
def test_integer_cap_exits_2_promptly(tmp_path, capsys, big, command, key):
    path = _rank2_file(tmp_path, big)
    digits = len(str(*big.values()).lstrip("-"))
    start = time.perf_counter()
    assert run([command, str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "%s: entry of %d digits, not below 2^128 in absolute value" % (key, digits) in err
    assert "0" * 100 not in err


@pytest.mark.parametrize("big", [{"orders": 2 ** 128 - 1}, {"mul": 2 ** 128 - 1}])
def test_integer_cap_accepts_largest(tmp_path, big):
    path = _rank2_file(tmp_path, big)
    assert run(["validate", str(path)]) == 0


def oracle_int_vector(value, length, where):
    """The per-entry check written out apart from ``cli._int_vector``: the
    checked list, or the message it raises."""
    if not isinstance(value, list):
        return "key %s: expected a list" % where
    if len(value) != length:
        return "key %s: expected %d integers, got %d" % (where, length, len(value))
    for x in value:
        if not isinstance(x, int) or isinstance(x, bool):
            return "key %s: non-integer entry %r" % (where, x)
        if not abs(x) < 2 ** 128:
            return "key %s: entry of %d digits, not below 2^128 in absolute value" % (
                where, len(str(abs(x))))
    return list(value)


@pytest.mark.parametrize(
    "value",
    [
        [1, -2, 0], [0, 0, 0], [2 ** 128 - 1, 1 - 2 ** 128, 7],
        [1, 2], [1, 2, 3, 4], [], "123", {"a": 1}, None,
        [1, True, 2], [False, 0, 0], [1, 2.0, 3], [1.5, 0, 0], [1, "2", 3],
        [1, None, 3], [1, [2], 3], [2 ** 128, 0, 0], [0, -(2 ** 128), 0],
        [0, 10 ** 4000, 0], [1, 2.0, 2 ** 128], [2 ** 128, 2.0, 1],
    ],
)
def test_int_vector_matches_per_entry_check(value):
    want = oracle_int_vector(value, 3, "mul entry 2")
    try:
        got = cli._int_vector(value, 3, "mul entry 2")
    except ModelFormatError as exc:
        got = str(exc)
    assert got == want
    assert type(got) is type(want)


@pytest.mark.parametrize("rank,code", [(64, 0), (65, 2)])
def test_rank_cap(tmp_path, capsys, rank, code):
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(model_to_dict(trivial_model(rank))))
    assert run(["validate", str(path)]) == code
    err = capsys.readouterr().err
    assert ("key basis: 65 labels, more than 64" in err) == (code == 2)


def test_series_longer_than_truncation_rejected(tmp_path, capsys):
    doc = model_to_dict(gw_point("R"))
    doc["lambda"]["L"] += [[0, 0]] * 41
    path = tmp_path / "long_series.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    assert "lambda[L]: 42 terms, more than trunc 16" in capsys.readouterr().err


def test_series_row_that_reduces_to_zero_writes_the_file_without_it(tmp_path):
    # eps has order two, so a last row (0, 2) is zero: a model given
    # trunc + 1 rows ending in it is the model without that row, and so is
    # its file; the reader itself refuses trunc + 1 rows (test above)
    m = gw_punctured_a5(3)
    rows = [g.coeffs for g in m.lambda_on_basis[1]]
    rows += [(0, 0)] * (m.trunc - len(rows)) + [(0, 2)]
    longer = RingModel(m.name, m.group, m.unit.coeffs, {(0, 0): (1, 0), (0, 1): (0, 1)},
                       m.aug, [[(1, 0)], rows], [], m.trunc)
    assert len(rows) == m.trunc + 1
    path = tmp_path / "longer.json"
    dump_model(longer, str(path))
    assert path.read_bytes() == model_bytes(m)
    assert model_to_dict(parse_model(str(path))) == model_to_dict(m)


def test_every_command_validates_once(tmp_path, monkeypatch, capsys):
    assert "validate" not in inspect.signature(parse_model).parameters
    path = tmp_path / "point.json"
    assert run(["builtin", "gw_point", "--base", "R", "-o", str(path)]) == 0
    calls = []
    real = cli.validate_model
    monkeypatch.setattr(cli, "validate_model", lambda m: calls.append(m.name) or real(m))
    for argv in (
        ["validate", str(path)],
        ["special", str(path)],
        ["filtration", str(path)],
        ["special", "builtin:gw_point", "--base", "R"],
        ["filtration", "builtin:gw_point", "--base", "R"],
    ):
        calls.clear()
        assert run(argv) == 0, argv
        assert calls == ["gw_point(base=R)"], argv
    capsys.readouterr()


def test_model_file_keeps_truncation(tmp_path, capsys):
    path = tmp_path / "p12.json"
    dump_model(gw_projective("C", 12, trunc=20), str(path))
    doc = json.loads(path.read_text())
    assert doc["trunc"] == 20
    m = parse_model(str(path))
    assert m.trunc == 20
    assert gamma_filtration(m).exact
    assert run(["filtration", str(path)]) == 0
    assert "exact: yes" in capsys.readouterr().out.splitlines()
    # without the key, the series of this file are longer than the default
    del doc["trunc"]
    with pytest.raises(ModelFormatError, match=r"lambda\[a\]: 20 terms, more than trunc 16"):
        model_from_dict(doc)
    # files written before the key existed read at the default truncation
    doc = model_to_dict(gw_projective("C", 12))
    del doc["trunc"]
    assert model_from_dict(doc).trunc == 16


@pytest.mark.parametrize("bad", [0, 65, -3, True, 2.5, "16", None, [16]])
def test_bad_truncation_rejected(tmp_path, capsys, bad):
    doc = model_to_dict(gw_point("R"))
    doc["trunc"] = bad
    with pytest.raises(ModelFormatError, match="key trunc: "):
        model_from_dict(doc)
    path = tmp_path / "bad_trunc.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 2
    assert "key trunc: " in capsys.readouterr().err


def test_filtration_table_output(capsys):
    code = run(
        [
            "filtration",
            "builtin:gw_projective",
            "--base",
            "C",
            "--r",
            "5",
            "--max-degree",
            "7",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("model: gw_projective")
    assert "exact: yes" in out
    assert "F^5: a3" in out
    assert "gr^6: Z/2" in out


def test_filtration_json_deterministic(capsys):
    argv = [
        "filtration",
        "builtin:gw_punctured_a5",
        "--f",
        "3",
        "--max-degree",
        "4",
        "--json",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {
        "model", "witt", "max_degree", "exact", "warnings", "basis", "orders",
        "pieces", "graded",
    }
    assert doc["exact"] is True
    assert doc["graded"] == [[0], [], [2], []]
    assert len(doc["pieces"]) == 5


def test_filtration_witt_flag(tmp_path, capsys):
    assert run(["filtration", "builtin:gw_point_R", "--max-degree", "6", "--witt"]) == 0
    out = capsys.readouterr().out
    assert out.count("gr^") == 6
    assert "gr^5: Z/2" in out
    # an empty hyperbolic list is fine: the quotient changes nothing
    assert run(["filtration", "builtin:gw_punctured_a5", "--f", "3", "--witt"]) == 0
    capsys.readouterr()
    # but a model that never declared the key cannot be quotiented
    path = tmp_path / "no_hyp.json"
    assert run(["builtin", "gw_punctured_a5", "--f", "3", "-o", str(path)]) == 0
    doc = json.loads(path.read_text())
    del doc["hyperbolic"]
    path.write_text(json.dumps(doc))
    assert run(["filtration", str(path), "--witt"]) == 2


def test_special_command(capsys):
    assert run(["special", "builtin:gw_point", "--base", "R", "--bound", "3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "all identities PASS"
    assert all(line.startswith("PASS") for line in out[:-1])
    # a bound outside 1..4 would check no product identity at all
    assert run(["special", "builtin:gw_point", "--bound", "0"]) == 2
    assert run(["special", "builtin:gw_point", "--bound", "5"]) == 2


def test_parser_built_once_keeps_no_state(capsys):
    # the parser is built once per import: a usage error, a valid command
    # and the same usage error again print what a fresh parser prints
    assert cli.build_parser() is cli.build_parser()
    seen = []
    for argv in (["special"], ["milnor", "--n", "2"], ["special"]):
        code = run(argv)
        seen.append((code, *capsys.readouterr()))
    assert seen[0] == seen[2]
    assert seen[0][0] == 2 and "usage: gwgamma special" in seen[0][2]
    assert seen[1][0] == 0 and seen[1][2] == ""
    with pytest.raises(SystemExit):
        cli.build_parser.__wrapped__().parse_args(["special"])
    assert tuple(capsys.readouterr()) == seen[0][1:]


def test_milnor_command(capsys):
    assert run(["milnor", "--n", "3"]) == 0
    assert capsys.readouterr().out.strip() == "PASS vanishing<4; PASS product=sum"
    assert run(["milnor", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip() == "PASS vanishing<1; PASS product=sum"
    assert run(["milnor", "--n", "9"]) == 2


def test_format_helpers():
    assert format_group(()) == "0"
    assert format_group((0,)) == "Z"
    assert format_group((2, 2, 0)) == "Z/2 + Z/2 + Z"
    names = ("one", "a", "b")
    assert format_element(names, (0, 0, 0)) == "0"
    assert format_element(names, (1, -1, 0)) == "one - a"
    assert format_element(names, (-1, 2, 1)) == "-one + 2*a + b"


def test_non_neutral_unit_with_large_torsion_order_exits_1(tmp_path, capsys, monkeypatch):
    # one*one = 3*one + x: the power of lambda_t(t) to the order 2^40 is the
    # binomial sum over T^1..T^trunc, T = t t, whatever the unit does
    def e(i):
        return tuple(int(k == i) for k in range(3))

    m = RingModel(
        "non-neutral", GroupPresentation((0, 0, 2 ** 40), ("one", "x", "t")), e(0),
        {(0, 0): (3, 1, 0), (0, 1): e(1), (1, 1): e(0), (0, 2): e(2)},
        (1, 1, 0), [[e(i)] for i in range(3)],
    )
    path = tmp_path / "non_neutral.json"
    path.write_text(json.dumps(model_to_dict(m)))
    column_product = series._product
    columns = [0]

    def counted_product(*args):
        columns[0] += 1
        return column_product(*args)

    monkeypatch.setattr(series, "_product", counted_product)
    assert run(["validate", str(path)]) == 1
    # T^2..T^trunc, each one column product
    assert columns[0] <= m.trunc
    out = capsys.readouterr().out
    assert "FAIL unit is multiplicatively neutral" in out
    assert "PASS lambda-series respect torsion orders" in out
    assert run(["filtration", str(path), "--max-degree", "2"]) == 1


@pytest.fixture
def fresh_intern():
    """The intern of model file texts, empty before and after the test."""
    cli._MODELS.clear()
    yield cli._MODELS
    cli._MODELS.clear()


def test_one_model_and_one_run_of_each_check_per_file_text(
        tmp_path, monkeypatch, capsys, fresh_intern):
    path = tmp_path / "p3.json"
    dump_model(fresh(gw_projective)("R", 3), str(path))
    built, runs = [], {}
    real_build, real_checks = cli.model_from_dict, lambdaring._checks

    def counted(name, cases):
        runs[name] = runs.get(name, 0) + 1  # the check has started
        yield from cases

    monkeypatch.setattr(cli, "model_from_dict", lambda doc: built.append(doc) or real_build(doc))
    monkeypatch.setattr(lambdaring, "_checks", lambda m: tuple(
        (name, counted(name, cases)) for name, cases in real_checks(m)))
    for argv in (["validate", str(path)], ["special", str(path), "--bound", "3"],
                 ["filtration", str(path), "--json", "--witt"]):
        assert run(argv) == 0, argv
    capsys.readouterr()
    assert len(built) == 1
    assert runs == {name: 1 for name, _ in real_checks(parse_model(str(path)))}


def test_same_bytes_at_two_paths_give_one_model(tmp_path, fresh_intern):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        dump_model(gw_point("R"), str(path))
    assert parse_model(str(a)) is parse_model(str(b))
    # the intern keeps the digest of the bytes, not the text
    assert list(fresh_intern) == [hashlib.sha256(a.read_bytes()).digest()]


def test_rewritten_file_gives_the_new_model(tmp_path, capsys, fresh_intern):
    path, other = tmp_path / "model.json", tmp_path / "other.json"
    dump_model(gw_projective("C", 2), str(path))
    dump_model(gw_surface_cxp1(1), str(other))
    first = parse_model(str(path))
    assert run(["filtration", str(path), "--json"]) == 0
    old = capsys.readouterr().out
    path.write_bytes(other.read_bytes())
    assert parse_model(str(path)) is not first
    assert run(["filtration", str(path), "--json"]) == 0
    new = capsys.readouterr().out
    assert run(["filtration", str(other), "--json"]) == 0
    assert new == capsys.readouterr().out
    assert new != old
    # bytes that fail a check give their own report, not the passing one
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    broken = os.path.join(os.path.dirname(__file__), "data", "broken_ring.json")
    with open(broken, "rb") as fh:
        path.write_bytes(fh.read())
    assert run(["validate", str(path)]) == 1
    got = capsys.readouterr().out
    assert run(["validate", broken]) == 1
    assert got == capsys.readouterr().out
    assert "FAIL" in got


def test_malformed_file_names_its_path_on_every_call(tmp_path, capsys, fresh_intern):
    path = tmp_path / "malformed.json"
    path.write_text('{"name": "x", "basis": [')
    for _ in range(2):
        assert run(["validate", str(path)]) == 2
        assert "error: %s: line 1 column" % path in capsys.readouterr().err
    assert len(fresh_intern) == 0


def test_threads_parsing_shared_files_get_one_model_per_text(tmp_path, fresh_intern):
    # eight threads parse ten files in their own orders, twice over, with a
    # short switch interval; every parse of one text returns one model, and
    # the intern holds one entry per text
    paths = []
    for n in range(10):
        doc = model_to_dict(trivial_model(1))
        doc["name"] = "text %d" % n
        paths.append(str(tmp_path / ("m%d.json" % n)))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
    got, errors = [], []

    def parse(seed):
        try:
            order = random.Random(seed).sample(paths * 2, 2 * len(paths))
            got.extend((p, id(parse_model(p))) for p in order)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == [] and len(got) == 8 * 2 * len(paths)
    assert len(set(got)) == len(paths) == len(fresh_intern)


def test_the_65th_text_evicts_the_least_recently_used(tmp_path, fresh_intern):
    paths = []
    for n in range(65):
        doc = model_to_dict(trivial_model(1))
        doc["name"] = "text %d" % n
        paths.append(tmp_path / ("m%d.json" % n))
        paths[-1].write_text(json.dumps(doc))
    models = [parse_model(str(p)) for p in paths[:64]]
    assert parse_model(str(paths[0])) is models[0]  # now t1 is the oldest
    models.append(parse_model(str(paths[64])))
    assert len(fresh_intern) == 64
    assert parse_model(str(paths[0])) is models[0]
    assert parse_model(str(paths[1])) is not models[1]
    assert parse_model(str(paths[1])).name == models[1].name
