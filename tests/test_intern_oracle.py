"""The interned model files and the check memo against the paths they replace.

``cli.parse_model`` returns one model per distinct file text
(``cli._model_of_text``), and each check of ``lambdaring._checks`` runs at
most once per model (``lambdaring._first_cases``), for ``validate_model``
and for the refusals of ``gamma_filtration`` alike.  The earlier paths stay
here as oracles: a fresh parse, ``model_from_dict`` of the loaded text, for
every command, and a report or refusal read directly off the generators of
``_checks`` on a fresh copy of the model.
"""

import contextlib
import functools
import io
import random

import pytest
from hypothesis import given, settings, strategies as st

import gwgamma
from gwgamma import cli
from gwgamma.cli import dump_model, model_from_dict, model_to_dict, run
from gwgamma.filtration import _REFUSALS, gamma_filtration
from gwgamma.lambdaring import CheckResult, Report, _checks, validate_model
from gwgamma.models import BUILTINS

from reference import (
    CLI_BUILTINS, CLI_IDS, JOBS_MODULE, augmented_ring_models, fresh, lambda_one_ring,
    nonzero_rank_ring, ring_models, torsion_rank_ring, torsion_series_ring, uncached,
    unkilled_torsion_ring, zero_augmentation_ring, zero_unit_rank_ring)

BUILDS = (
    [functools.partial(uncached(BUILTINS[name]), **kwargs) for name, kwargs in CLI_BUILTINS]
    + [functools.partial(JOBS_MODULE.group_ring, gwgamma, label)
       for label in JOBS_MODULE.FILE_GROUP_RINGS]
)
COMMANDS = (["validate"], ["special"], ["filtration", "--json"])


def outcome(argv):
    """Exit code, stdout and stderr of ``cli.run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The 49 CLI builtin files and the ten group-ring files of the
    benchmark, and the commands on them."""
    root = tmp_path_factory.mktemp("models")
    paths = []
    for n, build in enumerate(BUILDS):
        paths.append(str(root / ("model%d.json" % n)))
        dump_model(build(), paths[-1])
    return [[cmd[0], path, *cmd[1:]] for path in paths for cmd in COMMANDS]


@pytest.mark.parametrize("seed", [1, 2])
def test_interned_files_give_the_output_of_fresh_parses(files, monkeypatch, seed):
    fresh = {}
    with monkeypatch.context() as patched:
        patched.setattr(cli, "_model_of_text", lambda text: model_from_dict(cli._loads(text)))
        for argv in files:
            fresh[tuple(argv)] = outcome(argv)
    jobs = list(files)
    random.Random(seed).shuffle(jobs)
    cli._MODELS.clear()
    try:
        for argv in jobs:
            assert outcome(argv) == fresh[tuple(argv)], argv
        # gw_point_C and gw_point_R write the bytes of gw_point at C and R
        texts = {open(argv[1], encoding="utf-8").read() for argv in files}
        assert len(cli._MODELS) == len(texts) == len(BUILDS) - 2
    finally:
        cli._MODELS.clear()


def copy(m):
    """A fresh model with the data of m, built on an emptied registry of
    content records: no check has run on it."""
    return fresh(lambda: model_from_dict(model_to_dict(m)))()


def oracle_report(m):
    """The report read directly off the generators of ``_checks``."""
    first = ((name, next(cases, None)) for name, cases in _checks(m))
    return Report(tuple(CheckResult(name, case is None, case or "") for name, case in first))


def oracle_refusal(m):
    """The message of the first case of the refused checks, or None."""
    checks = dict(_checks(m))
    for name in _REFUSALS:
        for case in checks[name]:
            return "%s: %s" % (name, case)
    return None


def refusal(m, kmax):
    try:
        gamma_filtration(m, kmax=kmax)
    except ValueError as exc:
        return str(exc)
    return None


def assert_memo_matches_oracle(m, kmax=2):
    report, message = oracle_report(copy(m)), oracle_refusal(copy(m))
    for validate_first in (True, False):
        fresh = copy(m)
        if validate_first:
            assert validate_model(fresh) == report
        # a refused model raises the same message on every call
        for _ in range(2):
            assert refusal(fresh, kmax) == message
        assert validate_model(fresh) == report
        assert validate_model(fresh) == report


@pytest.mark.parametrize("build", BUILDS + [
    functools.partial(JOBS_MODULE.group_ring, gwgamma, "C2^4"),
    zero_augmentation_ring, nonzero_rank_ring, unkilled_torsion_ring, lambda_one_ring,
    torsion_rank_ring, torsion_series_ring, zero_unit_rank_ring,
], ids=CLI_IDS + ["Z[%s]" % label for label in JOBS_MODULE.FILE_GROUP_RINGS + ("C2^4",)]
   + ["zero_augmentation", "nonzero_rank", "unkilled_torsion", "lambda_one",
      "torsion_rank", "torsion_series", "zero_unit_rank"])
def test_check_memo_matches_the_checks_read_directly(build):
    assert_memo_matches_oracle(build())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(ring_models(neutral_unit=False), ring_models(neutral_unit=True),
                 augmented_ring_models()), st.integers(1, 3))
def test_check_memo_of_drawn_models_matches_the_checks_read_directly(m, kmax):
    assert_memo_matches_oracle(m, kmax)
