"""Differential tests of the integer-column paths from builtin to filtration.

The references are the earlier paths, which went through ``RingElement`` and
``GroupElement`` at every coefficient.  They live here only as oracles:

* ``oracle_model`` is the earlier ``models._model``: it built a ring for the
  arithmetic, read the builder's series back coefficient by coefficient
  and built a second ``RingModel`` from those coefficients; here each
  series is read off the builder's gamma-polynomial one group element at a
  time;
* ``oracle_gamma_values`` wrapped every gamma-coefficient in a ring element;
* ``oracle_witt_pieces`` reduced every HNF column to a group element,
  projected it, and spanned the images with ``subgroup_from_generators``.

The file also pins the work these paths do (one ``RingModel`` per builtin,
no series coefficient turned into a ring element by a filtration run) and
the constructor's refusal of data that the model file format refuses.
"""

import re
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma import models
from gwgamma.abelian import (
    GroupPresentation,
    full_subgroup,
    kernel_basis,
    project_element,
    quotient_presentation,
    subgroup_from_generators,
)
from gwgamma.cli import dump_model, model_to_dict, parse_model, run
from gwgamma.filtration import (
    _gamma_values,
    gamma_filtration,
    witt_filtration,
    witt_quotient,
)
from gwgamma.lambdaring import RingModel, gamma_total, validate_model
from gwgamma.models import BUILTINS, gw_punctured_a5, gw_surface_cxp1
from test_arith_oracle import elements_of, model_and_elements, ring_models
from test_filtration_oracle import CLI_BUILTINS, fresh, uncached
from test_sparse_oracle import oracle_project, presentations, vectors

IDS = ["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS]


def oracle_model(name, group, unit, mul, aug, gammas, hyperbolic, trunc):
    def build(lambda_on_basis):
        return RingModel(name, group, unit, mul, aug, lambda_on_basis, hyperbolic, trunc)

    def lambda_rows(i, rows):
        # lambda_t(b) = 1 + b t for a line class b; otherwise gamma_t(b) at
        # t/(1+t): lambda^k(b) = sum_i (-1)^(k-i) C(k-1, k-i) gamma^i(b)
        if rows is None:
            return [group.basis_element(i).coeffs]
        g = [group.element(r) for r in rows[:trunc]]
        return [sum(((-1) ** (k - i) * comb(k - 1, k - i) * g[i - 1]
                     for i in range(1, min(k, len(g)) + 1)), group.zero()).coeffs
                for k in range(1, trunc + 1)]

    return build([lambda_rows(i, rows) for i, rows in enumerate(gammas)])


def rebuilt(m):
    """m rebuilt through the public constructor from its own data."""
    rank = m.group.rank
    mul = {}
    for i in range(rank):
        for j in range(i, rank):
            row = [0] * rank
            for k, c in m.products[i][j]:
                row[k] = c
            mul[(i, j)] = row
    return RingModel(
        m.name, m.group, m.unit.coeffs, mul, m.aug,
        [[g.coeffs for g in s] for s in m.lambda_on_basis],
        None if m.hyperbolic is None else [h.coeffs for h in m.hyperbolic],
        m.trunc,
    )


def oracle_gamma_values(gens, order):
    values = []
    for e in gens:
        coeffs = elements_of(gamma_total(e, order))
        values.extend(
            (i, coeffs[i]) for i in range(1, order + 1) if not coeffs[i].is_zero
        )
    return values


def by_weight(values):
    """The oracle's values grouped as ``_gamma_values`` groups them: the
    distinct coefficient tuples of each weight, weights and values in
    first-seen order; as a list of items, so the weights' order counts."""
    out = {}
    for i, g in values:
        out.setdefault(i, {})[g.value.coeffs] = None
    return [(i, list(gs)) for i, gs in out.items()]


def oracle_witt_pieces(m, f):
    qpres, projection = witt_quotient(m)

    def push(col):
        elem = m.group.element(col)
        return qpres.element([
            sum(row[j] * c for j, c in enumerate(elem.coeffs)) for row in projection
        ])

    return (full_subgroup(qpres),) + tuple(
        subgroup_from_generators(qpres, [push(c) for c in piece.columns])
        for piece in f.pieces[1:]
    )


# ---------------------------------------------------------------- builtins

@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=IDS)
def test_builtin_equals_rebuilt_and_oracle_build(monkeypatch, name, kwargs):
    m = BUILTINS[name](**kwargs)
    monkeypatch.setattr(models, "_model", oracle_model)
    old = uncached(BUILTINS[name])(**kwargs)
    assert old is not m
    orders = sorted({0, 1, m.trunc // 2, m.trunc})
    for ref in (rebuilt(m), old):
        assert m.lambda_on_basis == ref.lambda_on_basis
        assert model_to_dict(m) == model_to_dict(ref)
        for i in range(m.group.rank):
            for o in orders:
                got, want = m.basis_lambda_series(i, o), ref.basis_lambda_series(i, o)
                assert got.order == want.order == o
                assert got._columns == want._columns


@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=IDS)
def test_builtin_gamma_values_and_witt_pieces_match_oracle(name, kwargs):
    m = BUILTINS[name](**kwargs)
    gens = [m.element(v) for v in kernel_basis(m.aug)]
    want = oracle_gamma_values(gens, m.trunc)
    assert list(_gamma_values(m, [e.value.coeffs for e in gens], m.trunc).items()) == by_weight(want)
    f = gamma_filtration(m)
    assert witt_filtration(m, f).pieces == oracle_witt_pieces(m, f)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ring_models(neutral_unit=True))
def test_drawn_gamma_values_match_oracle(m):
    gens = [m.element(v) for v in kernel_basis(m.aug)]
    want = oracle_gamma_values(gens, m.trunc)
    assert list(_gamma_values(m, [e.value.coeffs for e in gens], m.trunc).items()) == by_weight(want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(model_and_elements(neutral_unit=True, count=4))
def test_gamma_values_of_drawn_elements_match_oracle(drawn):
    # the basis powers built for one element serve the next, whatever
    # coefficient each gives a basis element
    m, gens = drawn
    want = oracle_gamma_values(gens, m.trunc)
    assert list(_gamma_values(m, [e.value.coeffs for e in gens], m.trunc).items()) == by_weight(want)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_unreduced_vector_projects_as_its_reduction(data):
    # the Witt push projects HNF columns, which may hold a relation vector
    # o * e_i unreduced; the image must be that of the reduced vector
    pres = data.draw(presentations(max_rank=4))
    small = st.lists(st.integers(-6, 6), min_size=pres.rank, max_size=pres.rank)
    gens = data.draw(st.lists(small, max_size=3))
    qpres, projection = quotient_presentation(
        pres, subgroup_from_generators(pres, [pres.element(g) for g in gens])
    )
    for _ in range(3):
        v = data.draw(vectors(pres))
        want = oracle_project(qpres, projection, pres.element(v)).coeffs
        assert project_element(qpres, projection, v) == want


# ---------------------------------------------------------------- work bounds

@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=IDS)
def test_builtin_builds_one_model(monkeypatch, name, kwargs):
    calls = []
    init = RingModel.__init__

    def counted(self, *args, **kw):
        calls.append(args[0] if args else kw["name"])
        init(self, *args, **kw)

    monkeypatch.setattr(RingModel, "__init__", counted)
    m = uncached(BUILTINS[name])(**kwargs)
    assert calls == [m.name]


def wrapped_rows(monkeypatch):
    """The coordinate rows that ``RingModel.element`` turns into ring
    elements from now on: the one way a series coefficient, read by rows,
    becomes a ring element."""
    rows = []
    element = RingModel.element

    def counted(self, coeffs):
        rows.append(tuple(coeffs))
        return element(self, coeffs)

    monkeypatch.setattr(RingModel, "element", counted)
    return rows


@pytest.mark.parametrize("build", [
    lambda: fresh(gw_surface_cxp1)(s=12), lambda: fresh(gw_punctured_a5)(f=6),
], ids=["gw_surface_cxp1-12", "gw_punctured_a5-6"])
def test_filtration_reads_no_ring_coefficients(monkeypatch, build):
    # no ring element, neither per generator of the augmentation kernel,
    # which the gamma-values take as coefficient tuples, nor per
    # gamma-coefficient
    rows = wrapped_rows(monkeypatch)
    m = build()
    f = gamma_filtration(m, kmax=8)
    witt_filtration(m, f)
    assert rows == []


def test_line_elements_read_no_ring_coefficients(monkeypatch):
    # each candidate's lambda-series is read by rows, never as ring elements
    rows = wrapped_rows(monkeypatch)
    lines = models.line_elements(gw_surface_cxp1.__wrapped__(4))
    assert len(lines) == 16
    assert rows == []


def test_special_reads_no_ring_coefficients(monkeypatch, capsys):
    # the checker reads each lambda-series by rows and folds the universal
    # polynomials on their entries; lambda^n(x) of a composition goes to
    # the lambda-series by its coefficient tuple, so nothing is wrapped
    rows = wrapped_rows(monkeypatch)
    args = ["special", "builtin:gw_projective", "--base", "R", "--r", "7", "--bound", "3"]
    assert run(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    assert rows == []


# ---------------------------------------------------------------- constructor

def square_zero(trunc, series):
    """Z*one + Z*x with x^2 = 0 and lambda(x) given by its coefficients."""
    group = GroupPresentation((0, 0), ("one", "x"))
    mul = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 0)}
    return RingModel("square_zero", group, (1, 0), mul, (1, 0), [[(1, 0)], series],
                     trunc=trunc)


def test_constructor_refuses_series_longer_than_truncation():
    for terms in (5, 6):
        with pytest.raises(ValueError, match="element 1: %d terms, more than trunc 4" % terms):
            square_zero(4, [(0, 1)] * terms)
    # trailing zero degrees are stripped before the count
    m = square_zero(4, [(0, 1)] * 4 + [(0, 0)] * 3)
    assert len(m.lambda_on_basis[1]) == 4


def test_constructor_strips_rows_that_reduce_to_zero_before_the_count():
    # (0, 2) is zero in Z one + Z/2 x: trunc + 1 rows ending in it are the
    # series of the first trunc rows
    group = GroupPresentation((0, 2), ("one", "x"))
    mul = {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 0)}

    def build(series):
        return RingModel("two_torsion", group, (1, 0), mul, (1, 0), [[(1, 0)], series],
                         trunc=4)

    short = build([(0, 1)] * 4)
    long = build([(0, 1)] * 4 + [(0, 2)])
    assert long.lambda_on_basis == short.lambda_on_basis
    assert model_to_dict(long) == model_to_dict(short)


@pytest.mark.parametrize("trunc", [0, -3])
def test_constructor_refuses_truncation_below_one(trunc):
    with pytest.raises(ValueError, match="truncation order %d is below 1" % trunc):
        square_zero(trunc, [(0, 1)])


@pytest.mark.parametrize("trunc", [True, False, 2.0, 2.5, "4", None])
def test_constructor_refuses_a_truncation_that_is_no_integer(trunc):
    # a bool builds a model whose file the parser refuses, a float failed
    # deep in the series code; both are refused where the model is built
    message = re.escape("truncation order %r is not an integer" % (trunc,))
    with pytest.raises(ValueError, match=message):
        square_zero(trunc, [(0, 1)])
    for name, kwargs in CLI_BUILTINS:
        with pytest.raises(ValueError, match=message):
            BUILTINS[name](trunc=trunc, **kwargs)
    with pytest.raises(ValueError, match=message):
        models.gw_point("R", trunc=trunc)


def test_constructed_model_round_trips_through_file(tmp_path):
    m = square_zero(4, [(0, 1)] * 4 + [(0, 0)] * 2)
    assert validate_model(m).ok
    path = tmp_path / "square_zero.json"
    dump_model(m, str(path))
    assert model_to_dict(parse_model(str(path))) == model_to_dict(m)
    assert run(["validate", str(path)]) == 0
