"""Golden output of every ``gwgamma`` command.

``tests/data/cli_golden.json`` holds, for each builtin over the parameter
range the command line accepts, the exit code of ``gwgamma.cli.run`` and a
SHA-256: of stdout for the plain, ``--json`` and ``--json --witt`` forms of
``filtration``, for ``special builtin:<name>`` and for ``validate`` on the
file that ``builtin <name> -o FILE`` writes, and of that file itself.  It
also holds ``milnor --n 1..4`` and ``validate``, ``special`` and
``filtration`` on the hand-broken model files in ``tests/data``.  Any change
to the arithmetic, the model constructors, the filtration engine, the
identity checkers or the output format that alters a single byte fails here.

The file is recorded once, from a known-good tree, and never regenerated
to make a change pass:

    PYTHONPATH=<known-good tree>/src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from gwgamma.cli import run
from test_filtration_oracle import CLI_BUILTINS

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "cli_golden.json")

FORMS = ([], ["--json"], ["--json", "--witt"])
# the output path of ``builtin -o``; each run writes to a fresh temporary file
OUTPUT = "FILE"
# the prefix of a path in tests/data
DATA_PREFIX = "DATA/"
# model files that break several identities, or one special identity
BROKEN_FILES = ("broken_ring.json", "broken_lambda.json", "flipped_sign.json")


def _flags(kwargs):
    return [t for flag, value in kwargs.items() for t in ("--" + flag, str(value))]


CASES = [
    ["filtration", "builtin:" + name, *_flags(kwargs), *form]
    for name, kwargs in CLI_BUILTINS
    for form in FORMS
]
MODEL_CASES = [["builtin", name, *_flags(kwargs), "-o", OUTPUT] for name, kwargs in CLI_BUILTINS]
CHECK_CASES = (
    [[*argv, "&&", "validate", OUTPUT] for argv in MODEL_CASES]
    + [["special", "builtin:" + name, *_flags(kwargs)] for name, kwargs in CLI_BUILTINS]
    + [["milnor", "--n", str(n)] for n in range(1, 5)]
    + [[cmd, DATA_PREFIX + f] for f in BROKEN_FILES for cmd in ("validate", "special", "filtration")]
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_case(argv):
    """Exit code and SHA-256 of the written file for ``builtin -o``, of stdout
    otherwise; in ``A && B``, B runs after A in the same temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        argv = [
            path if a == OUTPUT
            else os.path.join(DATA, a[len(DATA_PREFIX):]) if a.startswith(DATA_PREFIX)
            else a
            for a in argv
        ]
        if "&&" in argv:
            pos = argv.index("&&")
            assert run(argv[:pos]) == 0
            argv = argv[pos + 1:]
        if argv[0] == "builtin":
            code = run(argv)
            with open(path, "rb") as fh:
                return {"file_sha256": _sha256(fh.read()), "exit": code}
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        return {"stdout_sha256": _sha256(buf.getvalue().encode("utf-8")), "exit": code}


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_load()) == sorted(" ".join(a) for a in CASES + MODEL_CASES + CHECK_CASES)


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a[1:]) for a in CASES])
def test_filtration_output_matches_golden(argv):
    assert run_case(argv) == _load()[" ".join(argv)]


@pytest.mark.parametrize("argv", MODEL_CASES, ids=[" ".join(a[1:-2]) for a in MODEL_CASES])
def test_model_file_matches_golden(argv):
    assert run_case(argv) == _load()[" ".join(argv)]


@pytest.mark.parametrize("argv", CHECK_CASES, ids=[" ".join(a) for a in CHECK_CASES])
def test_check_output_matches_golden(argv):
    assert run_case(argv) == _load()[" ".join(argv)]


if __name__ == "__main__":
    record = {" ".join(argv): run_case(argv) for argv in CASES + MODEL_CASES + CHECK_CASES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
    sys.stderr.write("recorded %d cases to %s\n" % (len(record), GOLDEN))
