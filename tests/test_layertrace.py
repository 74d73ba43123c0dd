"""The per-layer tracing harness of the benchmark still finds every name it
wraps: ``bench/layertrace.py`` looks up functions and methods of the package
by name, so removing one of them breaks ``bench/run.py --trace 1``."""

import gwgamma
import gwgamma.cli  # noqa: F401  (the tracer wraps every layer, cli included)
from reference import load


def test_layer_tracer_installs_and_uninstalls():
    original = gwgamma.cli.validate_model
    tracer = load("bench/layertrace.py").Tracer(gwgamma)
    tracer.install()
    try:
        assert gwgamma.cli.validate_model is not original
    finally:
        tracer.uninstall()
    assert gwgamma.cli.validate_model is original


def test_tracer_counts_the_special_checker_folds(capsys):
    # the checker folds its universal polynomials with MultiPoly.evaluate,
    # the method the tracer counts as symfunc.evaluations
    tracer = load("bench/layertrace.py").Tracer(gwgamma)
    tracer.install()
    try:
        assert gwgamma.cli.run(["special", "builtin:gw_point", "--base", "R"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    assert tracer.metrics()["symfunc.evaluations"] > 0
