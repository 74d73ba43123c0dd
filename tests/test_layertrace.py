"""The per-layer tracing harness of the benchmark still finds every name it
wraps: ``bench/layertrace.py`` looks up functions and methods of the package
by name, so removing one of them breaks ``bench/run.py --trace 1``."""

import importlib.util
import os
import sys

import gwgamma
import gwgamma.cli  # noqa: F401  (the tracer wraps every layer, cli included)

LAYERTRACE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "layertrace.py"
)


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    try:
        spec.loader.exec_module(layertrace)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return layertrace


def test_layer_tracer_installs_and_uninstalls():
    original = gwgamma.cli.validate_model
    tracer = load_layertrace().Tracer(gwgamma)
    tracer.install()
    try:
        assert gwgamma.cli.validate_model is not original
    finally:
        tracer.uninstall()
    assert gwgamma.cli.validate_model is original


def test_tracer_counts_the_special_checker_folds(capsys):
    # the checker folds its universal polynomials with MultiPoly.evaluate,
    # the method the tracer counts as symfunc.evaluations
    tracer = load_layertrace().Tracer(gwgamma)
    tracer.install()
    try:
        assert gwgamma.cli.run(["special", "builtin:gw_point", "--base", "R"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    assert tracer.metrics()["symfunc.evaluations"] > 0
