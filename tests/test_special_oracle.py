"""Differential test of the one-pass ``special`` checker.

The reference below is the earlier ``verify_special_pair``: for every pair
it built lambda_t(x), lambda_t(y) and lambda_t(x*y) and ran the composition
checks of x afresh.  ``gwgamma special`` and ``verify_special_pair`` now run
one checker that builds lambda_t of each element once and the composition
checks of each element once.  On every pair it must give an equal
``Report``, and it must raise where the per-pair checker raised, with the
same message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma import cli, lambdaring
from gwgamma.lambdaring import (
    CheckResult,
    Report,
    RingModel,
    _special_reports,
    lambda_k,
    lambda_total,
    verify_special_pair,
)
from gwgamma.models import BUILTINS
from gwgamma.series import TruncSeries
from gwgamma.symfunc import MultiPoly, compose_universal, product_universal
from test_arith_oracle import elements_of, ring_models
from test_evaluate_oracle import oracle_evaluate
from test_filtration_oracle import CLI_BUILTINS

COMPOSE_PAIRS = ((2, 2), (2, 3), (3, 2))


def oracle_special_pair(x, y, bound=3, compose_pairs=COMPOSE_PAIRS):
    if x.model is not y.model:
        raise ValueError("elements from different models")
    one = x.model.unit_element
    need = max([bound] + [m * n for m, n in compose_pairs])
    lam_x = elements_of(lambda_total(x, need))
    lam_y = elements_of(lambda_total(y, bound))
    lam_xy = elements_of(lambda_total(x * y, bound))
    checks = []
    for n in range(1, bound + 1):
        lhs = lam_xy[n]
        values = list(lam_x[1:n + 1] + lam_y[1:n + 1])
        rhs = oracle_evaluate(product_universal(n), values, one)
        checks.append(CheckResult(
            "lambda^%d(x*y) == P_%d(lambda x, lambda y)" % (n, n),
            lhs == rhs, "lhs %r rhs %r" % (lhs.value.coeffs, rhs.value.coeffs)))
    for mm, nn in compose_pairs:
        lhs = lambda_k(lam_x[nn], mm)
        values = list(lam_x[1:mm * nn + 1])
        rhs = oracle_evaluate(compose_universal(mm, nn), values, one)
        checks.append(CheckResult(
            "lambda^%d(lambda^%d(x)) == P_%d,%d(lambda x)" % (mm, nn, mm, nn),
            lhs == rhs, "lhs %r rhs %r" % (lhs.value.coeffs, rhs.value.coeffs)))
    return Report(tuple(checks))


def basis_pairs(rank):
    return [(i, j) for i in range(rank) for j in range(i, rank)]


def outcomes(reports):
    """The reports an iterable yields, then the message it raised, if any."""
    out = []
    try:
        for report in reports:
            out.append(report)
    except ValueError as exc:
        out.append(str(exc))
    return out


def assert_matches_oracle(elements, pairs, bound):
    got = outcomes(_special_reports(elements, pairs, bound))
    want = outcomes(oracle_special_pair(elements[i], elements[j], bound) for i, j in pairs)
    assert got == want
    return got


@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_basis_pairs_match_oracle(name, kwargs):
    m = BUILTINS[name](**kwargs)
    basis = m.basis_elements()
    for bound in (1, 2, 3):
        got = assert_matches_oracle(basis, basis_pairs(len(basis)), bound)
        assert all(isinstance(r, Report) and r.ok for r in got), bound


def at_truncation(m, trunc):
    """The model m with its lambda-series truncated at ``trunc``."""
    rank = m.group.rank
    mul = {}
    for i in range(rank):
        for j in range(i, rank):
            row = [0] * rank
            for k, c in m.products[i][j]:
                row[k] = c
            mul[(i, j)] = row
    lam = [[g.coeffs for g in s[:trunc]] for s in m.lambda_on_basis]
    return RingModel(m.name, m.group, m.unit.coeffs, mul, m.aug, lam, trunc=trunc)


@st.composite
def elements_at_truncation(draw):
    """Up to three small elements and the zero element, in drawn order, of a
    drawn model with a neutral unit at a truncation in 1..6; below 6 the
    default compositions need more than the model has."""
    m = at_truncation(draw(ring_models(neutral_unit=True)), draw(st.integers(1, 6)))
    vec = st.lists(st.integers(-2, 2), min_size=m.group.rank, max_size=m.group.rank)
    elements = [m.element(v) for v in draw(st.lists(vec, min_size=1, max_size=3))]
    elements.insert(draw(st.integers(0, len(elements))), m.zero_element)
    return elements


def outcome(check, x, y, bound):
    try:
        return check(x, y, bound)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(elements_at_truncation(), st.integers(1, 3))
def test_drawn_pairs_match_oracle(elements, bound):
    assert_matches_oracle(elements, basis_pairs(len(elements)), bound)
    for x in elements:
        for y in elements:
            assert outcome(verify_special_pair, x, y, bound) == outcome(
                oracle_special_pair, x, y, bound
            )


def test_zero_x_passes_on_short_truncation():
    # the compositions need lambda_t(x) to order 6; x = 0 needs no basis
    # series, so a model at truncation 4 still passes, and y is asked for
    # to order `bound` only
    m = at_truncation(BUILTINS["gw_point"]("R"), 4)
    zero, y = m.zero_element, m.basis_element(1)
    report = verify_special_pair(zero, y)
    assert report.ok and report == oracle_special_pair(zero, y)
    with pytest.raises(ValueError, match="order 6 beyond model truncation 4"):
        verify_special_pair(y, zero)
    # on the pairs of (0, y): (0, 0) and (0, y) pass, (y, y) raises
    got = assert_matches_oracle((zero, y), basis_pairs(2), 3)
    assert [r.ok for r in got[:2]] == [True, True]
    assert got[2] == "order 6 beyond model truncation 4"


def counted_totals(monkeypatch):
    """The orders of the lambda-series that the per-element totals of
    ``lambdaring._lambda_totals`` build, one entry per element."""
    calls = []
    real_totals = lambdaring._lambda_totals

    def totals(m, order):
        total = real_totals(m, order)

        def counted(coeffs):
            calls.append(order)
            return total(coeffs)

        return counted

    monkeypatch.setattr(lambdaring, "_lambda_totals", totals)
    return calls


def test_special_work_bound(monkeypatch, capsys):
    # per element: lambda_t(b_i) once and its three compositions once; per
    # pair: lambda_t(b_i*b_j).  Rank 12: 12 + 36 + 78 = 126 lambda-series,
    # 468 with the per-pair checker
    calls = counted_totals(monkeypatch)
    compositions = {compose_universal(m, n) for m, n in COMPOSE_PAIRS}
    evaluated = []
    real_fold = MultiPoly.evaluate

    def fold(poly, *args):
        if poly in compositions:
            evaluated.append(poly)
        return real_fold(poly, *args)

    monkeypatch.setattr(MultiPoly, "evaluate", fold)
    # every ring product of the run, validation's included: 1,749 with
    # a ring element per coefficient and product, 1,547 on tuples with the
    # prefixes of lambda^k(x) kept across the pairs of one x, 1,733 on
    # tuples with each polynomial's prefixes kept for its one evaluation
    products = []
    real_dot = RingModel.dot

    def dot(self, xs, ys):
        products.append(1)
        return real_dot(self, xs, ys)

    monkeypatch.setattr(RingModel, "dot", dot)
    assert cli.run(["special", "builtin:gw_surface_cxp1", "--s", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    assert 0 < len(products) <= 1733
    rank = BUILTINS["gw_surface_cxp1"](4).group.rank
    assert rank == 12
    assert 0 < len(calls) <= 150
    assert 0 < len(evaluated) <= len(compositions) * rank


def test_special_pair_totals_build_each_lambda_series_once(monkeypatch):
    # lambda_t(x), lambda_t(y) and lambda_t(xy), plus lambda_t(lambda^n(x))
    # for each of the three default compositions; the earlier checker built 11
    calls = counted_totals(monkeypatch)
    m = BUILTINS["gw_projective"].__wrapped__("R", 3)
    basis = m.basis_elements()
    for i, x in enumerate(basis):
        for y in basis[i:]:
            calls.clear()
            assert verify_special_pair(x, y).ok
            assert 0 < len(calls) <= 6


def test_special_builds_each_basis_power_once_per_order(monkeypatch):
    # one basis series per element and order, and each of its powers once,
    # across all pairs of the run
    series, powers, held = [], [], []
    real_series, real_pow = RingModel.basis_lambda_series, TruncSeries.pow

    def basis_series(self, i, order):
        series.append((i, order))
        return real_series(self, i, order)

    def pow(self, e):
        held.append(self)  # no id is reused while the run lasts
        powers.append((id(self), e))
        return real_pow(self, e)

    monkeypatch.setattr(RingModel, "basis_lambda_series", basis_series)
    monkeypatch.setattr(TruncSeries, "pow", pow)
    m = BUILTINS["gw_surface_cxp1"].__wrapped__(4)
    rank = m.group.rank
    pairs = [(i, j) for i in range(rank) for j in range(i, rank)]
    assert all(r.ok for r in _special_reports(m.basis_elements(), pairs, 3))
    assert series and len(series) == len(set(series))
    assert powers and len(powers) == len(set(powers))
