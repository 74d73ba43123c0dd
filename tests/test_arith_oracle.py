"""Differential test of the integer-vector arithmetic core.

The reference, ``oracle_arithmetic`` of ``tests/reference.py``, is the
earlier arithmetic: the ring-element product (once ``RingModel.multiply``)
built a ``GroupElement`` for every nonzero basis pair from a table of
``GroupElement`` products and reduced after every addition, and
``TruncSeries`` chained ring-element products and sums one term at a time.
It works on ring-element coefficients that ``series_of`` folds into a
series and ``elements_of`` reads back out: the one helper pair every
oracle of the tests uses to cross between a series and ring elements.
``oracle_arithmetic()`` swaps it in for the duration of a ``with`` block;
models constructed inside the block also carry the old product table, so
the oracle never reads the sparse rows.

With structure constants that treat the unit as neutral, the earlier
``pow`` (binary exponentiation, ``oracle_pow``, also the reference of
``test_pow_oracle``) and the earlier ``lambda_total`` (which started from
the unit series) give the same series as the current ones on every drawn
model that ``is_ring``; without such a unit they need not, so those
comparisons draw a neutral unit.  On a drawn
model that is no ring no bracketing of S * ... * S is canonical, and
``pow`` must equal ``binomial_pow``, the sum of C(e, k) T^k, T = S - 1,
with T^k the product T * T^(k-1) of the oracle's series.

``inverse`` is ``pow(-1)``, the same binomial sum.  The earlier inverse,
forward substitution, stays as ``oracle_inverse``: on a ring the
inverse is unique, so on every drawn model that ``is_ring`` and on every
builtin basis series the two must agree and S * S^-1 must be 1; on a drawn
model that is no ring the inverse must equal ``binomial_pow(s, -1)``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.lambdaring import lambda_total
from gwgamma.models import BUILTINS
from reference import (
    CLI_BUILTINS, CLI_IDS, ORACLE_SETTINGS, basis_product, binomial_pow, is_ring, line_ring,
    model_and_elements, oracle_arithmetic, oracle_inverse, oracle_pow, ring_models, series_of,
    uncached, z_series)


def oracle_lambda_total(x, order, power):
    m = x.model
    out = series_of([m.unit_element], order)
    for i, c in enumerate(x.value.coeffs):
        if c:
            out = out * power(m.basis_lambda_series(i, order), c)
    return out


@st.composite
def model_and_series(draw, neutral_unit=False, count=2):
    m = draw(ring_models(neutral_unit))
    order = draw(st.integers(0, 6))
    vec = st.lists(st.integers(-9, 9), min_size=m.group.rank, max_size=m.group.rank)
    out = [
        series_of([m.unit_element] + [m.element(draw(vec)) for _ in range(order)])
        for _ in range(count)
    ]
    return m, out


@ORACLE_SETTINGS
@given(model_and_elements())
def test_multiply_matches_oracle(drawn):
    m, (x, y) = drawn
    got = (x * y).value
    with oracle_arithmetic():
        assert got == (x * y).value


def oracle_dot(m, xs, ys):
    """The dense product x*y of the representatives as given, from the
    per-pair table, reduced once."""
    rank = m.group.rank
    acc = [0] * rank
    x, y = [0] * rank, [0] * rank
    for v, entries in ((x, xs), (y, ys)):
        for i, c in entries:
            v[i] += c
    for i in range(rank):
        for j in range(rank):
            for k, c in enumerate(basis_product(m, i, j).coeffs):
                acc[k] += x[i] * y[j] * c
    return m.group.element(acc).coeffs


@st.composite
def model_and_pair(draw):
    """A drawn model with a pair of sparse entry lists; a list may be empty,
    and its coefficients are not reduced mod the torsion orders."""
    m = draw(ring_models(draw(st.booleans())))
    rank = m.group.rank
    vec = st.lists(st.integers(-20, 20) | st.just(0), min_size=rank, max_size=rank)
    entries = vec.map(lambda v: [(i, c) for i, c in enumerate(v) if c])
    return m, draw(entries), draw(entries)


@ORACLE_SETTINGS
@given(model_and_pair())
def test_dot_matches_dense_sum_of_products(drawn):
    m, xs, ys = drawn
    got = m.dot(xs, ys)
    if not any(m.products[i][j] for i, _ in xs for j, _ in ys):
        # the pair meets no nonempty structure-constant row: the zero path
        assert got == (0,) * m.group.rank
    assert got == oracle_dot(m, xs, ys)


def test_dot_zero_path():
    # Z + Z/2 x with x*x = 0 (the row of x*x is empty): empty entry lists
    # and pairs that meet only the empty row give zero
    with oracle_arithmetic():
        m = line_ring("Z+Z/2", (0, 2), {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 2)},
                      (1, 0), names=("one", "x"))
    x = [(1, 3)]
    for xs, ys in (([], []), ([], x), (x, []), (x, x), (x, [(1, 1)])):
        assert m.dot(xs, ys) == (0, 0) == oracle_dot(m, xs, ys)
    assert m.dot([(0, 2)], x) == (0, 0)  # 6x mod 2, not the zero path
    assert m.dot([(0, 1)], x) == (0, 1)


@ORACLE_SETTINGS
@given(model_and_series())
def test_series_product_and_inverse_match_oracle(drawn):
    m, (s, t) = drawn
    prod, inv = s * t, s.inverse()
    with oracle_arithmetic():
        assert prod == s * t
        check_inverse(m, s, inv)


def check_inverse(m, s, inv):
    """On a ring, inv is the forward substitution's inverse and S * inv = 1;
    on a model that is no ring, the binomial sum.  Run under the oracle."""
    if is_ring(m):
        assert inv == oracle_inverse(s)
        assert s * inv == series_of([m.unit_element], s.order)
    else:
        assert inv == binomial_pow(s, -1)


@ORACLE_SETTINGS
@given(model_and_series(count=1))
def test_substitutions_match_oracle(drawn):
    _, (s,) = drawn
    geo, alt = s.substitute_geometric(), s.substitute_alternating()
    with oracle_arithmetic():
        assert geo == s.substitute_geometric()
        assert alt == s.substitute_alternating()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(model_and_elements(count=1))
def test_substitutions_with_zero_tails_match_oracle(drawn):
    # the drawn series above are mostly dense; here 1 + x t and 1 + x t - x t^2,
    # the builtin gamma-polynomials, end in zeros, and the unit series and a
    # coordinate of the unit that x lacks are nonzero only in degree 0
    m, (x,) = drawn
    for order in (1, 2, 16, 64):
        for coeffs in ([x], [x, -x], []):
            s = series_of([m.unit_element, *coeffs], order)
            geo, alt = s.substitute_geometric(), s.substitute_alternating()
            with oracle_arithmetic():
                assert geo == s.substitute_geometric()
                assert alt == s.substitute_alternating()


@ORACLE_SETTINGS
@given(model_and_series(neutral_unit=True, count=1))
def test_series_pow_matches_oracle(drawn):
    # with a neutral unit about a third of the draws are rings; the draws of
    # the product and inverse test above, whose unit need not be neutral,
    # seldom are
    m, (s,) = drawn
    got = [s.pow(e) for e in range(-3, 6)]
    inv = s.inverse()
    power = oracle_pow if is_ring(m) else binomial_pow
    with oracle_arithmetic():
        assert got == [power(s, e) for e in range(-3, 6)]
        check_inverse(m, s, inv)


@ORACLE_SETTINGS
@given(model_and_elements(neutral_unit=True, count=1))
def test_lambda_total_matches_oracle(drawn):
    m, (x,) = drawn
    got = lambda_total(x, m.trunc)
    power = oracle_pow if is_ring(m) else binomial_pow
    with oracle_arithmetic():
        assert got == oracle_lambda_total(x, m.trunc, power)


def test_integer_series_match_oracle():
    # Z as the complex point, built with the oracle's per-pair table
    with oracle_arithmetic():
        one = BUILTINS["gw_point"].__wrapped__("C").unit_element
    s = z_series((1, 3, -2, 0, 5, -1), one)
    t = z_series((2, -1, 4, 1, 0, 7), one)
    got = (s * t, s.inverse(), [s.pow(e) for e in range(-3, 6)],
           t.substitute_geometric(), t.substitute_alternating())
    with oracle_arithmetic():
        assert got == (s * t, s.inverse(), [s.pow(e) for e in range(-3, 6)],
                       t.substitute_geometric(), t.substitute_alternating())


# ---------------------------------------------------------------- builtins

@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=CLI_IDS)
def test_builtin_basis_series_inverses_match_oracle(name, kwargs):
    m = BUILTINS[name](**kwargs)
    one = series_of([m.unit_element], m.trunc)
    for i in range(m.group.rank):
        s = m.basis_lambda_series(i, m.trunc)
        inv = s.inverse()
        assert inv == oracle_inverse(s), i
        assert s * inv == one, i


@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=CLI_IDS)
def test_builtin_lambda_series_match_oracle_build(name, kwargs):
    # the uncached build: a shared model would not be the oracle's
    with oracle_arithmetic():
        expected = uncached(BUILTINS[name])(**kwargs)
    assert hasattr(expected, "mul_table")  # built by the oracle
    assert BUILTINS[name](**kwargs).lambda_on_basis == expected.lambda_on_basis
