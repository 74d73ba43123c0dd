"""Command-line front end: model file I/O and verification reports.

Model files are JSON documents with keys name, basis, orders, unit,
augmentation, mul, lambda and optionally hyperbolic and trunc (the
truncation order of the lambda-series, 16 when absent; no series may be
longer).  A file names at most 64 basis labels, and every integer in
orders, unit, augmentation, mul, lambda and hyperbolic is below 2^128 in
absolute value; a larger one, even one too long for int(), is refused with
its key and digit count.  A file is refused for its first unknown key, else
its first missing one in the order of ``_KEYS``, whatever the hash seed,
else its first bad value.  All emitted JSON is sorted and indented the same
way every run, so identical inputs give byte-identical outputs.  Each
distinct file text is parsed into one model and each check runs once on it
per process, while the text is among the 64 last parsed
(``_model_of_text``); ``validate`` prints the report, the other commands
stop with it when a check fails.

Exit codes: 0 all checks pass, 1 a mathematical identity failed,
2 usage, I/O, or syntax problem.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import os
import sys
import threading
from typing import Sequence

from .abelian import GroupPresentation
from .filtration import FiltrationResult, gamma_filtration, witt_filtration
from .lambdaring import (
    DEFAULT_TRUNCATION,
    Report,
    RingModel,
    _special_reports,
    validate_model,
)
from .milnor import check_identities
from .models import BUILTINS
from .symfunc import PRODUCT_DEGREE_BOUND


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
    rank = len(names)

    def dense(row):
        v = [0] * rank
        for k, c in row:
            v[k] = c
        return v

    doc: dict = {
        "name": m.name,
        "basis": names,
        "orders": list(m.group.orders),
        "unit": list(m.unit.coeffs),
        "augmentation": list(m.aug),
        "mul": [
            [i, j, dense(m.products[i][j])]
            for i in range(rank)
            for j in range(i, rank)
            if m.products[i][j]
        ],
        "lambda": {name: [list(g.coeffs) for g in series]
                   for name, series in zip(names, m.lambda_on_basis)},
        "trunc": m.trunc,
    }
    if m.hyperbolic is not None:
        doc["hyperbolic"] = [list(h.coeffs) for h in m.hyperbolic]
    return doc


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ModelFormatError(message)


# the keys of a model file, the required ones first, in the order a missing
# one is refused and, but for trunc (read before lambda), values are checked
_KEYS = ("name", "basis", "orders", "unit", "augmentation", "mul", "lambda",
         "trunc", "hyperbolic")

# every integer of a model file is below this in absolute value
_INT_BOUND = 2 ** 128


class _LongInteger:
    """Stands for a JSON integer too long to convert; every key that wants
    an integer rejects it by name, a vector of integers by its digit count."""

    def __init__(self, digits: str):
        self.length = len(digits.lstrip("-"))

    def __repr__(self) -> str:
        return "<integer of %d digits>" % self.length


def _int_vector(value: object, length: int, where: str) -> list[int]:
    _require(isinstance(value, list), "key %s: expected a list" % where)
    _require(
        len(value) == length,
        "key %s: expected %d integers, got %d" % (where, length, len(value)),
    )
    # the per-entry messages are built only for the entry that fails
    for x in value:
        if type(x) is int and abs(x) < _INT_BOUND:
            continue
        if not (type(x) is int or isinstance(x, _LongInteger)):
            raise ModelFormatError("key %s: non-integer entry %r" % (where, x))
        digits = x.length if isinstance(x, _LongInteger) else len(str(abs(x)))
        raise ModelFormatError(
            "key %s: entry of %d digits, not below 2^128 in absolute value"
            % (where, digits)
        )
    return list(value)


def _vector_list(value: object, rank: int, where: str, entry: str,
                 first: int = 0, trunc: int | None = None) -> list[list[int]]:
    """The vectors of `rank` integers in the list `value`: `where` names the
    list in its refusals, "`entry` n" its n-th vector counting from `first`;
    given `trunc`, the list has at most that many terms."""
    _require(isinstance(value, list), "%s: expected a list" % where)
    _require(
        trunc is None or len(value) <= trunc,
        "%s: %d terms, more than trunc %s" % (where, len(value), trunc),
    )
    return [_int_vector(v, rank, "%s %d" % (entry, n)) for n, v in enumerate(value, first)]


def model_from_dict(doc: object) -> RingModel:
    _require(isinstance(doc, dict), "top level: expected an object")
    for key in doc:
        _require(key in _KEYS, "unknown key %r" % key)
    for key in _KEYS[:-2]:
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
    _require(rank <= 64, "key basis: %d labels, more than 64" % rank)

    vectors = []
    for key in _KEYS[2:5]:
        vectors.append(_int_vector(doc[key], rank, key))
        _require(key != "orders" or min(vectors[0]) >= 0, "key orders: negative entry")
    orders, unit, aug = vectors

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
        _require(type(i) is int and type(j) is int, "%s: indices must be integers" % where)
        _require(0 <= i <= j < rank, "%s: need 0 <= i <= j < %d" % (where, rank))
        _require((i, j) not in mul, "%s: duplicate pair (%d, %d)" % (where, i, j))
        mul[(i, j)] = _int_vector(coeffs, rank, where)

    trunc = doc.get("trunc", DEFAULT_TRUNCATION)
    _require(
        type(trunc) is int and 1 <= trunc <= 64,
        "key trunc: expected an integer in 1..64, got %r" % (trunc,),
    )

    lam_doc = doc["lambda"]
    _require(isinstance(lam_doc, dict), "key lambda: expected an object")
    for label in lam_doc:
        _require(label in basis, "key lambda: unknown basis label %r" % label)
    lambda_on_basis = []
    for label in basis:
        _require(label in lam_doc, "key lambda: missing series for %r" % label)
        where = "lambda[%s]" % label
        lambda_on_basis.append(_vector_list(
            lam_doc[label], rank, where, where + " degree", first=1, trunc=trunc))

    hyperbolic = None
    if "hyperbolic" in doc:
        hyperbolic = _vector_list(
            doc["hyperbolic"], rank, "key hyperbolic", "hyperbolic entry")

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
            trunc=trunc,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def _parse_int(digits: str) -> object:
    try:
        return int(digits)
    except ValueError:
        return _LongInteger(digits)


def _loads(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        # an integer too long for int(): parse again with a placeholder for it
        return json.loads(text, parse_int=_parse_int)


# the SHA-256 digest of a file text's UTF-8 bytes: its model, the least
# recently used first (see _model_of_text)
_MODELS: dict[bytes, RingModel] = {}
_MODELS_LOCK = threading.Lock()


def _model_of_text(text: str) -> RingModel:
    """The model of a file text, one per text among the 64 last used, so
    that every command on those bytes is spared a parse; its checks and
    filtration are shared through the record of its content
    (``lambdaring._derived``).  It is kept under the text's digest, not the
    text: the 49 CLI builtin files hold 1.19 MB of text, the largest
    211 KB.  A parse error is raised and nothing kept."""
    key = hashlib.sha256(text.encode("utf-8")).digest()
    with _MODELS_LOCK:
        m = _MODELS.pop(key, None)
        if m is None:
            m = model_from_dict(_loads(text))
        _MODELS[key] = m
        if len(_MODELS) > 64:
            del _MODELS[next(iter(_MODELS))]
    return m


def parse_model(path: str) -> RingModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError("cannot read %s: %s" % (path, exc)) from exc
    try:
        return _model_of_text(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(
            "%s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        ) from exc
    except RecursionError as exc:
        raise ModelFormatError("%s: JSON nested too deeply" % path) from exc


def dump_model(m: RingModel, path: str) -> None:
    text = json.dumps(model_to_dict(m), sort_keys=True, indent=2) + "\n"
    data = text.encode("utf-8")
    try:
        # a writable regular file that already holds these bytes is left as
        # it is: rewriting it costs a flush on some file systems (ext4)
        if (os.path.isfile(path) and os.path.getsize(path) == len(data)
                and os.access(path, os.R_OK | os.W_OK)):
            with open(path, "rb") as fh:
                if fh.read() == data:
                    return
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
    """The model of a file or ``builtin:<name>`` target, validated."""
    if target.startswith("builtin:"):
        m = make_builtin(target, args)
    else:
        m = parse_model(target)
    report = validate_model(m)
    if not report.ok:
        raise ValidationFailure(report)
    return m


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


def _filtration_json(f: FiltrationResult, witt: bool) -> dict:
    return {
        "model": f.model.name,
        "witt": witt,
        "max_degree": f.kmax,
        "exact": f.exact,
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
    report = validate_model(parse_model(args.file))
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_filtration(args: argparse.Namespace) -> int:
    m = load_model(args.target, args)
    f = gamma_filtration(m, kmax=args.max_degree)
    if args.witt:
        f = witt_filtration(m, f)
    if args.as_json:
        print(json.dumps(_filtration_json(f, args.witt), sort_keys=True, indent=2))
    else:
        for line in _filtration_text(f):
            print(line)
    return 0


def _cmd_special(args: argparse.Namespace) -> int:
    m = load_model(args.target, args)
    names = m.group.names
    rank = len(names)
    pairs = [(i, j) for i in range(rank) for j in range(i, rank)]
    reports = _special_reports(m.basis_elements(), pairs, args.bound)
    lines = []
    failed = False
    for (i, j), pair_report in zip(pairs, reports):
        label = "(%s, %s)" % (names[i], names[j])
        if pair_report.ok:
            lines.append("PASS %s" % label)
        else:
            failed = True
            lines.append("FAIL %s: %s" % (label, pair_report.first_failure.name))
    if not failed:
        lines.append("all identities PASS")
    print("\n".join(lines))
    return 1 if failed else 0


def _cmd_milnor(args: argparse.Namespace) -> int:
    report = check_identities(args.n)
    print("; ".join(report.lines()))
    return 0 if report.ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: it holds no state of a call."""
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
    p_filt.add_argument("--witt", action="store_true")
    p_filt.add_argument("--json", action="store_true", dest="as_json")
    p_filt.set_defaults(handler=_cmd_filtration)

    p_special = sub.add_parser(
        "special", help="verify product and composition laws on basis pairs"
    )
    p_special.add_argument("target", help="model file or builtin:<name>")
    add_builtin_flags(p_special)
    p_special.add_argument(
        "--bound", type=int, default=3, choices=range(1, PRODUCT_DEGREE_BOUND + 1)
    )
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
    except (UsageError, ModelFormatError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        for line in exc.report.lines():
            print(line)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
