"""The one stored form of each basis lambda-series.

A model stores lambda_t(b_i) once, as the integer columns of its series
``basis_lambda_series(i, trunc)``; every lower order is cut from it, and
``lambda_on_basis`` derives the group elements of degrees 1..D_b from it on
every read.  The references below are the rows an earlier model stored
beside the columns: the builder's series read off as coordinate tuples,
trailing zero degrees dropped, or the rows a constructor was given.  A
builder's rows come from ``oracle_lambda_rows`` in ``tests/reference.py``,
the binomial sums of its gamma-polynomial, so a fault in the series
substitution the build uses shows here.
"""

import pytest
from hypothesis import given, settings

import gwgamma
from gwgamma import models
from gwgamma.abelian import GroupElement, GroupPresentation
from gwgamma.cli import dump_model, model_to_dict, parse_model
from gwgamma.lambdaring import RingModel
from gwgamma.models import BUILTINS, gw_projective
from gwgamma.series import TruncSeries
from reference import (
    CLI_BUILTINS, CLI_IDS, JOBS_MODULE, augmented_ring_models, oracle_lambda_rows, ring_models,
    uncached)


def stored_rows(group, series_rows):
    """The rows of each series in degrees 1..D, D the last nonzero degree,
    as group elements: the form that was once stored beside the columns."""
    out = []
    for rows in series_rows:
        while rows and not any(rows[-1]):
            rows.pop()
        out.append(tuple(GroupElement(group, r) for r in rows))
    return tuple(out)


def built_with_rows(monkeypatch, name, kwargs):
    """An uncached build of the builtin and the rows of its builder's series,
    from the binomial sums of ``oracle_lambda_rows``, not from the series
    substitution the build itself uses: 1 + b t for a line class b, else its
    gamma-polynomial at t/(1+t)."""
    built = []
    real = models._model

    def capture(name, group, unit, mul, aug, gammas, hyperbolic, trunc):
        built.extend(oracle_lambda_rows(group, i, rows, trunc) for i, rows in enumerate(gammas))
        return real(name, group, unit, mul, aug, gammas, hyperbolic, trunc)

    with monkeypatch.context() as patched:
        patched.setattr(models, "_model", capture)
        m = uncached(BUILTINS[name])(**kwargs)
    return m, stored_rows(m.group, built)


@pytest.mark.parametrize("trunc", [1, 16, 64])
@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=CLI_IDS)
def test_builtin_derived_rows_equal_stored_rows(monkeypatch, tmp_path, name, kwargs, trunc):
    m, rows = built_with_rows(monkeypatch, name, dict(kwargs, trunc=trunc))
    assert m.lambda_on_basis == rows
    assert BUILTINS[name](**kwargs, trunc=trunc).lambda_on_basis == rows
    path = str(tmp_path / "model.json")
    dump_model(m, path)
    parsed = parse_model(path)
    assert parsed.lambda_on_basis == rows
    assert model_to_dict(parsed) == model_to_dict(m)
    for i in range(m.group.rank):
        assert parsed.basis_lambda_series(i, trunc) == TruncSeries._of(
            parsed, trunc, m.basis_lambda_series(i, trunc)._columns)


@pytest.mark.parametrize("label", sorted(JOBS_MODULE.GROUP_RINGS))
def test_group_ring_derived_rows_equal_given_rows(label):
    m = JOBS_MODULE.group_ring(gwgamma, label)
    # lambda_t(g) = 1 + g t for every basis element g
    assert m.lambda_on_basis == tuple((b,) for b in m.group.basis())


def assert_cuts_match_rows(m):
    lam = m.lambda_on_basis
    for i in range(m.group.rank):
        for order in range(m.trunc + 1):
            got = m.basis_lambda_series(i, order)
            want = TruncSeries(m, [m.unit.coeffs, *(g.coeffs for g in lam[i])], order)
            assert got.order == order
            assert got._columns == want._columns


@settings(max_examples=60, deadline=None, derandomize=True)
@given(augmented_ring_models())
def test_basis_series_cuts_match_row_built_series(m):
    assert_cuts_match_rows(m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ring_models(neutral_unit=False))
def test_basis_series_cuts_match_row_built_series_on_any_unit(m):
    assert_cuts_match_rows(m)


def test_rows_are_derived_never_kept(tmp_path):
    m = gw_projective("R", 5)
    path = str(tmp_path / "model.json")
    dump_model(m, path)
    for model in (m, parse_model(path)):
        assert "lambda_on_basis" not in vars(model)
        first = model.lambda_on_basis
        assert first == model.lambda_on_basis and first is not model.lambda_on_basis
        assert "lambda_on_basis" not in vars(model)
        with pytest.raises(AttributeError):
            model.lambda_on_basis = first


def test_unit_series_is_built_from_the_unit():
    for m in (gw_projective("R", 3), JOBS_MODULE.group_ring(gwgamma, "C3")):
        unit, zero = m.unit.coeffs, (0,) * m.group.rank
        for order in range(6):
            s = TruncSeries(m, [unit], order)
            assert s.order == order
            assert s == TruncSeries(m, [unit] + [zero] * order, order)
            assert s.rows() == [unit] + [zero] * order
        with pytest.raises(ValueError, match="order must be non-negative"):
            TruncSeries(m, [unit], -1)


def test_given_rows_are_stored_once_reduced():
    # rows given unreduced and with trailing zero degrees, and empty lists:
    # each stored form is the columns of the series of the reduced rows
    group = GroupPresentation((0, 3, 0), ("one", "x", "y"))
    lam = [[], [(0, 4, 0), (0, -2, 1), (0, 3, 0), (0, 0, 0)], []]
    mul = {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1)}
    m = RingModel("x of order 3", group, (1, 0, 0), mul, (1, 0, 0), lam, trunc=5)
    for i, rows in enumerate(lam):
        columns = TruncSeries(m, [m.unit.coeffs, *rows], 5)._columns
        assert m._basis_columns[i] == {k: tuple(col) for k, col in columns.items()}
    assert m.lambda_on_basis[1] == (group.element((0, 1, 0)), group.element((0, 1, 1)))
    assert m._basis_columns[0] == {0: (1, 0, 0, 0, 0, 0)}
