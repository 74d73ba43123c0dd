"""End-to-end checks of the command-line interface and model file format."""

import json

import pytest

from gwgamma.cli import (
    ModelFormatError,
    format_element,
    format_group,
    model_from_dict,
    model_to_dict,
    parse_model,
    run,
)
from gwgamma.models import (
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
)


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


def test_unknown_subcommand_and_builtin():
    assert run(["frobnicate"]) == 2
    assert run(["builtin", "no_such_model", "-o", "/tmp/ignored.json"]) == 2
    # flags that the chosen builtin does not understand
    assert run(["builtin", "gw_point", "--r", "4", "-o", "/tmp/ignored.json"]) == 2
    assert run(["builtin", "gw_projective", "--r", "40", "-o", "/tmp/ignored.json"]) == 2


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
