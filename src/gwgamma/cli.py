"""Command-line front end: model file I/O and verification reports.

Model files are JSON documents with keys name, basis, orders, unit,
augmentation, mul, lambda and optionally hyperbolic.  All emitted JSON is
sorted and indented the same way every run, so identical inputs give
byte-identical outputs.

Exit codes: 0 all checks pass, 1 a mathematical identity failed,
2 usage, I/O, or syntax problem.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import Sequence

from .abelian import GroupPresentation
from .filtration import FiltrationResult, gamma_filtration, witt_filtration
from .lambdaring import Report, RingModel, validate_model, verify_special_pair
from .milnor import check_identities
from .models import BUILTINS


class ModelFormatError(Exception):
    """Structural problem in a model file; maps to exit code 2."""


class ValidationFailure(Exception):
    """Model parsed but an identity check failed; maps to exit code 1."""

    def __init__(self, report: Report):
        super().__init__("model failed validation")
        self.report = report


class UsageError(Exception):
    """Bad flags or addressing; maps to exit code 2."""


def model_to_dict(m: RingModel) -> dict:
    names = list(m.group.names)
    doc: dict = {
        "name": m.name,
        "basis": names,
        "orders": list(m.group.orders),
        "unit": list(m.unit.coeffs),
        "augmentation": list(m.aug),
        "mul": [
            [i, j, list(v.coeffs)]
            for (i, j), v in sorted(m.mul_table.items())
            if not v.is_zero
        ],
        "lambda": {
            names[i]: [list(c.coeffs) for c in m.lambda_on_basis[i]]
            for i in range(len(names))
        },
    }
    if m.hyperbolic is not None:
        doc["hyperbolic"] = [list(h.coeffs) for h in m.hyperbolic]
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


def _int_vector(value: object, length: int, where: str) -> list[int]:
    _require(isinstance(value, list), "key %s: expected a list" % where)
    _require(
        len(value) == length,
        "key %s: expected %d integers, got %d" % (where, length, len(value)),
    )
    for x in value:
        _require(
            isinstance(x, int) and not isinstance(x, bool),
            "key %s: non-integer entry %r" % (where, x),
        )
    return list(value)


def model_from_dict(doc: object) -> RingModel:
    _require(isinstance(doc, dict), "top level: expected an object")
    known = {
        "name",
        "basis",
        "orders",
        "unit",
        "augmentation",
        "mul",
        "lambda",
        "hyperbolic",
    }
    for key in doc:
        _require(key in known, "unknown key %r" % key)
    for key in known - {"hyperbolic"}:
        _require(key in doc, "missing key %r" % key)

    name = doc["name"]
    _require(isinstance(name, str), "key name: expected a string")
    basis = doc["basis"]
    _require(
        isinstance(basis, list)
        and basis
        and all(isinstance(b, str) for b in basis),
        "key basis: expected a non-empty list of labels",
    )
    _require(len(set(basis)) == len(basis), "key basis: duplicate labels")
    rank = len(basis)

    orders = _int_vector(doc["orders"], rank, "orders")
    _require(all(d >= 0 for d in orders), "key orders: negative entry")
    unit = _int_vector(doc["unit"], rank, "unit")
    aug = _int_vector(doc["augmentation"], rank, "augmentation")

    mul_doc = doc["mul"]
    _require(isinstance(mul_doc, list), "key mul: expected a list")
    mul: dict[tuple[int, int], list[int]] = {}
    for pos, entry in enumerate(mul_doc):
        where = "mul entry %d" % pos
        _require(
            isinstance(entry, list) and len(entry) == 3,
            "%s: expected [i, j, coefficients]" % where,
        )
        i, j, coeffs = entry
        _require(
            all(isinstance(x, int) and not isinstance(x, bool) for x in (i, j)),
            "%s: indices must be integers" % where,
        )
        _require(0 <= i <= j < rank, "%s: need 0 <= i <= j < %d" % (where, rank))
        _require((i, j) not in mul, "%s: duplicate pair (%d, %d)" % (where, i, j))
        mul[(i, j)] = _int_vector(coeffs, rank, where)

    lam_doc = doc["lambda"]
    _require(isinstance(lam_doc, dict), "key lambda: expected an object")
    for label in lam_doc:
        _require(label in basis, "key lambda: unknown basis label %r" % label)
    lambda_on_basis = []
    for label in basis:
        _require(label in lam_doc, "key lambda: missing series for %r" % label)
        series = lam_doc[label]
        where = "lambda[%s]" % label
        _require(isinstance(series, list), "%s: expected a list" % where)
        lambda_on_basis.append(
            [_int_vector(v, rank, "%s degree %d" % (where, d + 1)) for d, v in enumerate(series)]
        )

    hyperbolic = None
    if "hyperbolic" in doc:
        hyp_doc = doc["hyperbolic"]
        _require(isinstance(hyp_doc, list), "key hyperbolic: expected a list")
        hyperbolic = [
            _int_vector(v, rank, "hyperbolic entry %d" % pos)
            for pos, v in enumerate(hyp_doc)
        ]

    group = GroupPresentation(tuple(orders), tuple(basis))
    try:
        return RingModel(
            name,
            group,
            unit,
            mul,
            aug,
            lambda_on_basis,
            hyperbolic=hyperbolic,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def parse_model(path: str, validate: bool = True) -> RingModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelFormatError("cannot read %s: %s" % (path, exc)) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    m = model_from_dict(doc)
    if validate:
        report = validate_model(m)
        if not report.ok:
            raise ValidationFailure(report)
    return m


def dump_model(m: RingModel, path: str) -> None:
    text = json.dumps(model_to_dict(m), sort_keys=True, indent=2) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ModelFormatError("cannot write %s: %s" % (path, exc)) from exc


def make_builtin(name: str, args: argparse.Namespace) -> RingModel:
    if name.startswith("builtin:"):
        name = name[len("builtin:") :]
    if name not in BUILTINS:
        raise UsageError(
            "unknown builtin %r; choices: %s" % (name, ", ".join(sorted(BUILTINS)))
        )
    # every keyword of the constructor but the truncation is a CLI flag
    allowed = set(inspect.signature(BUILTINS[name]).parameters) - {"trunc"}
    kwargs = {}
    for flag in ("base", "r", "f", "s"):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag not in allowed:
            raise UsageError("builtin %s does not accept --%s" % (name, flag))
        kwargs[flag] = value
    try:
        return BUILTINS[name](**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def load_model(target: str, args: argparse.Namespace) -> RingModel:
    if target.startswith("builtin:"):
        return make_builtin(target, args)
    return parse_model(target)


def format_element(names: Sequence[str], coeffs: Sequence[int]) -> str:
    parts: list[str] = []
    for label, c in zip(names, coeffs):
        if c == 0:
            continue
        if c == 1:
            term = label
        elif c == -1:
            term = "-" + label
        else:
            term = "%d*%s" % (c, label)
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts) if parts else "0"


def format_group(invariants: Sequence[int]) -> str:
    if not invariants:
        return "0"
    return " + ".join("Z" if d == 0 else "Z/%d" % d for d in invariants)


def _filtration_text(f: FiltrationResult) -> list[str]:
    names = f.group.names
    lines = ["model: %s" % f.model.name]
    lines.append("exact: %s" % ("yes" if f.exact else "no"))
    for w in f.warnings:
        lines.append("warning: %s" % w)
    for k in range(1, f.kmax + 1):
        gens = [
            format_element(names, col)
            for col in f.pieces[k].columns
            if any(f.group.reduce(col))
        ]
        lines.append("F^%d: %s" % (k, ", ".join(gens) if gens else "0"))
    for k in range(f.kmax):
        lines.append("gr^%d: %s" % (k, format_group(f.graded[k])))
    return lines


def _filtration_json(f: FiltrationResult, witt: bool, window: int) -> dict:
    return {
        "model": f.model.name,
        "witt": witt,
        "max_degree": f.kmax,
        "window": window,
        "exact": f.exact,
        "stabilized_window": f.stabilized_window,
        "warnings": list(f.warnings),
        "basis": list(f.group.names),
        "orders": list(f.group.orders),
        "pieces": [
            [list(col) for col in f.pieces[k].columns] for k in range(f.kmax + 1)
        ],
        "graded": [list(t) for t in f.graded],
    }


def _cmd_builtin(args: argparse.Namespace) -> int:
    m = make_builtin(args.name, args)
    dump_model(m, args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    m = parse_model(args.file, validate=False)
    report = validate_model(m)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_filtration(args: argparse.Namespace) -> int:
    m = load_model(args.target, args)
    if args.witt:
        f = witt_filtration(m, kmax=args.max_degree, window=args.window)
    else:
        f = gamma_filtration(m, kmax=args.max_degree, window=args.window)
    if args.as_json:
        print(json.dumps(_filtration_json(f, args.witt, args.window), sort_keys=True, indent=2))
    else:
        for line in _filtration_text(f):
            print(line)
    return 0


def _cmd_special(args: argparse.Namespace) -> int:
    m = load_model(args.target, args)
    report = validate_model(m)
    if not report.ok:
        for line in report.lines():
            print(line)
        return 1
    names = m.group.names
    elements = m.basis_elements()
    failed = False
    for i in range(len(elements)):
        for j in range(i, len(elements)):
            pair_report = verify_special_pair(
                elements[i], elements[j], bound=args.bound
            )
            label = "(%s, %s)" % (names[i], names[j])
            if pair_report.ok:
                print("PASS %s" % label)
            else:
                failed = True
                worst = pair_report.first_failure
                print("FAIL %s: %s" % (label, worst.name if worst else "?"))
    if failed:
        return 1
    print("all identities PASS")
    return 0


def _cmd_milnor(args: argparse.Namespace) -> int:
    report = check_identities(args.n)
    print("; ".join(report.lines()))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwgamma",
        description="Lambda-ring models, gamma filtrations, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_builtin_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--base", choices=("C", "R"), help="ground base for builtins")
        p.add_argument("--r", type=int, help="projective dimension")
        p.add_argument("--f", type=int, help="rank parameter of the punctured space")
        p.add_argument("--s", type=int, help="number of two-torsion curve classes")

    p_builtin = sub.add_parser("builtin", help="emit a builtin model as a JSON file")
    p_builtin.add_argument("name")
    add_builtin_flags(p_builtin)
    p_builtin.add_argument("-o", "--output", required=True)
    p_builtin.set_defaults(handler=_cmd_builtin)

    p_validate = sub.add_parser("validate", help="check the identities of a model file")
    p_validate.add_argument("file")
    p_validate.set_defaults(handler=_cmd_validate)

    p_filt = sub.add_parser(
        "filtration", help="print filtration pieces and graded invariant factors"
    )
    p_filt.add_argument("target", help="model file or builtin:<name>")
    add_builtin_flags(p_filt)
    p_filt.add_argument("--max-degree", type=int, default=8, dest="max_degree")
    p_filt.add_argument("--window", type=int, default=2)
    p_filt.add_argument("--witt", action="store_true")
    p_filt.add_argument("--json", action="store_true", dest="as_json")
    p_filt.set_defaults(handler=_cmd_filtration)

    p_special = sub.add_parser(
        "special", help="verify product and composition laws on basis pairs"
    )
    p_special.add_argument("target", help="model file or builtin:<name>")
    add_builtin_flags(p_special)
    p_special.add_argument("--bound", type=int, default=3)
    p_special.set_defaults(handler=_cmd_special)

    p_milnor = sub.add_parser("milnor", help="verify the characteristic-class identities")
    p_milnor.add_argument("--n", type=int, required=True, choices=(1, 2, 3, 4))
    p_milnor.set_defaults(handler=_cmd_milnor)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ModelFormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        for line in exc.report.lines():
            print(line)
        return 1
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
