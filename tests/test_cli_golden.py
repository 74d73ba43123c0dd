"""Golden output of ``gwgamma filtration`` for every builtin.

``tests/data/cli_golden.json`` holds, for each builtin over the parameter
range the command line accepts and for the plain, ``--json`` and
``--json --witt`` forms, the SHA-256 of stdout and the exit code of
``gwgamma.cli.run``.  Any change to the arithmetic, the filtration engine
or the output format that alters a single byte fails here.

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

import pytest

from gwgamma.cli import run
from test_filtration_oracle import CLI_BUILTINS

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_golden.json")

FORMS = ([], ["--json"], ["--json", "--witt"])
CASES = [
    ["filtration", "builtin:" + name,
     *[t for flag, value in kwargs.items() for t in ("--" + flag, str(value))], *form]
    for name, kwargs in CLI_BUILTINS
    for form in FORMS
]


def run_case(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return {
        "stdout_sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest(),
        "exit": code,
    }


def _load():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case():
    assert sorted(_load()) == sorted(" ".join(a) for a in CASES)


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(a[1:]) for a in CASES])
def test_filtration_output_matches_golden(argv):
    assert run_case(argv) == _load()[" ".join(argv)]


if __name__ == "__main__":
    record = {" ".join(argv): run_case(argv) for argv in CASES}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
        fh.write("\n")
    sys.stderr.write("recorded %d cases to %s\n" % (len(record), GOLDEN))
