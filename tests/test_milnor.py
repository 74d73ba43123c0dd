"""Tests for the GF(2) polynomial engine and the top-class identities."""

import random
from itertools import product as cartesian

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma import milnor
from gwgamma.milnor import (
    F2Poly,
    check_identities,
    omega,
    top_class_product,
    top_class_sum,
)
from reference import basis_vector


def variable(index, nvars, maxdeg):
    """The polynomial x_(index+1) in nvars variables, cut at maxdeg."""
    return F2Poly(nvars, maxdeg, [basis_vector(index, nvars)])


def even_substitution_is_trivial(n, maxdeg):
    """Check that sending x_n to x_1 + x_2 collapses omega to 1.

    Replacing a variable by a sum of an even number of other variables makes
    the even and odd factors of the defining quotient cancel pairwise, so
    the truncated series must come out exactly constant.
    """
    if n < 3:
        raise ValueError("need n >= 3 so that x_1 + x_2 avoids x_n")
    w = omega(n, maxdeg)
    pair = variable(0, n, maxdeg) + variable(1, n, maxdeg)
    return w.substitute(n - 1, pair) == F2Poly.one(n, maxdeg)


def test_constructor_cancels_duplicates_and_truncates():
    p = F2Poly(2, 3, [(1, 0), (1, 0), (0, 1), (4, 0)])
    assert p == F2Poly(2, 3, [(0, 1)])
    assert F2Poly(2, 3, [(1, 1), (1, 1)]).terms == frozenset()


def test_addition_is_involutive():
    p = F2Poly(3, 4, [(1, 0, 0), (0, 2, 1)])
    assert (p + p).terms == frozenset()
    assert p - p == p + p
    q = F2Poly(3, 4, [(0, 2, 1), (1, 1, 1)])
    assert p + q == F2Poly(3, 4, [(1, 0, 0), (1, 1, 1)])


def test_multiplication_and_powers():
    x1 = variable(0, 2, 4)
    x2 = variable(1, 2, 4)
    assert x1 * x2 == F2Poly(2, 4, [(1, 1)])
    assert x1**3 == F2Poly(2, 4, [(3, 0)])
    # cross terms vanish mod 2
    assert (x1 + x2) ** 2 == F2Poly(2, 4, [(2, 0), (0, 2)])
    tight = variable(0, 2, 1)
    assert (tight * tight).terms == frozenset()


def test_inverse_is_geometric_series():
    one = F2Poly.one(1, 5)
    p = one + variable(0, 1, 5)
    assert p.inverse() == F2Poly(1, 5, [(k,) for k in range(6)])
    assert p * p.inverse() == one
    with pytest.raises(ValueError):
        variable(0, 1, 5).inverse()


def test_inverse_on_random_series():
    rng = random.Random(31)
    one = F2Poly.one(3, 5)
    for _ in range(12):
        terms = [(0, 0, 0)]
        for _ in range(rng.randrange(1, 7)):
            t = tuple(rng.randrange(3) for _ in range(3))
            if 0 < sum(t) <= 5:
                terms.append(t)
        p = F2Poly(3, 5, terms)
        assert p.constant_term == 1
        assert p * p.inverse() == one
        assert p.inverse().inverse() == p


def oracle_inverse(p):
    """The earlier ``F2Poly.inverse``: the fixed-point iteration
    q = 1 + tail * q, which settles after maxdeg full products."""
    if p.constant_term != 1:
        raise ValueError("inverse requires constant term 1")
    one = F2Poly.one(p.nvars, p.maxdeg)
    tail = p + one
    q = one
    for _ in range(p.maxdeg):
        q = one + tail * q
    return q


@st.composite
def series_with_unit_constant(draw):
    nvars, maxdeg = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    exps = st.lists(st.integers(0, maxdeg), min_size=nvars, max_size=nvars).map(
        tuple).filter(any)
    return F2Poly(nvars, maxdeg, [(0,) * nvars] + draw(st.lists(exps, max_size=6)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(series_with_unit_constant())
def test_inverse_matches_fixed_point_oracle(p):
    q = p.inverse()
    assert q == oracle_inverse(p)
    assert p * q == F2Poly.one(p.nvars, p.maxdeg)


def oracle_omega(n, maxdeg):
    """The earlier ``omega``, with the fixed-point inverse."""
    even = F2Poly.one(n, maxdeg)
    odd = F2Poly.one(n, maxdeg)
    for eps in cartesian((0, 1), repeat=n):
        if sum(eps):
            factor = F2Poly(n, maxdeg, [(0,) * n] + [
                basis_vector(i, n) for i, bit in enumerate(eps) if bit])
            if sum(eps) % 2 == 0:
                even = even * factor
            else:
                odd = odd * factor
    if n % 2 == 0:
        return even * oracle_inverse(odd)
    return odd * oracle_inverse(even)


@pytest.mark.parametrize(
    "n,maxdeg", [(n, d) for n in (1, 2, 3, 4) for d in range(2 ** (n - 1), 10)])
def test_omega_matches_earlier_output(n, maxdeg):
    assert omega(n, maxdeg) == oracle_omega(n, maxdeg)


@st.composite
def quotient_pair(draw):
    """A numerator of any shape and a denominator with constant term 1,
    in the same number of variables and at the same truncation."""
    nvars, maxdeg = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    exps = st.lists(st.integers(0, maxdeg), min_size=nvars, max_size=nvars).map(tuple)
    num = F2Poly(nvars, maxdeg, draw(st.lists(exps, max_size=6)))
    den = F2Poly(nvars, maxdeg, [(0,) * nvars] + draw(st.lists(exps.filter(any), max_size=6)))
    return num, den


@settings(max_examples=200, deadline=None, derandomize=True)
@given(quotient_pair())
def test_quotient_solves_against_oracle_inverse(pair):
    num, den = pair
    q = milnor._quotient(num, den)
    assert q * den == num
    assert q == num * oracle_inverse(den)


def test_omega_five_variables_vanishes_below_sixteen():
    assert omega(5, 16).min_positive_degree() == 16


def test_check_identities_work_bound(monkeypatch):
    # omega(4, 8) once: 15 products multiply out its factors, and 8 more
    # build the closed product form.  omega is then one exact quotient,
    # solved degree by degree, which skips every product with an empty
    # homogeneous part: every GF(2) product runs through ``_times``, 27 calls
    # visiting 1,870 pairs of exponent vectors, against 60 calls and 10,604
    # pairs with a series inverse followed by a full product, and 150,314
    # pairs in the 56 products of the fixed-point version
    products = []
    real_mul = F2Poly.__mul__

    def mul(self, other):
        products.append(1)
        return real_mul(self, other)

    pairs = []
    real_times = milnor._times

    def times(left, right, maxdeg):
        pairs.append(len(left) * len(right))
        return real_times(left, right, maxdeg)

    monkeypatch.setattr(F2Poly, "__mul__", mul)
    monkeypatch.setattr(milnor, "_times", times)
    assert milnor.check_identities(4).ok
    assert 0 < len(products) <= 23
    assert len(products) < len(pairs) <= 32
    assert sum(pairs) <= 2_500


def test_substitution_is_multiplicative():
    rng = random.Random(32)
    pair = variable(0, 3, 6) + variable(1, 3, 6)

    def sample():
        terms = []
        for _ in range(rng.randrange(1, 6)):
            t = tuple(rng.randrange(3) for _ in range(3))
            if sum(t) <= 3:
                terms.append(t)
        return F2Poly(3, 6, terms)

    for _ in range(10):
        p, q = sample(), sample()
        left = (p * q).substitute(2, pair)
        right = p.substitute(2, pair) * q.substitute(2, pair)
        assert left == right


def test_mismatched_shapes_rejected():
    with pytest.raises(ValueError):
        F2Poly(2, 3, [(1,)])
    with pytest.raises(ValueError):
        F2Poly.one(2, 3) + F2Poly.one(2, 4)
    with pytest.raises(ValueError):
        F2Poly.one(2, 3) * F2Poly.one(3, 3)


def test_omega_single_variable_terminates():
    # the lone denominator factor is inverted back by the global exponent
    for cutoff in (1, 3, 6):
        w = omega(1, cutoff)
        assert w == F2Poly.one(1, cutoff) + variable(0, 1, cutoff)


def test_omega_two_variables_frozen():
    w = omega(2, 4)
    expected = {(0, 0), (1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 3)}
    assert w.terms == frozenset(expected)
    assert w.min_positive_degree() == 2
    assert w.homogeneous_part(2) == F2Poly(2, 4, [(1, 1)])


def test_omega_three_variables_low_degrees_vanish():
    w = omega(3, 4)
    for d in (1, 2, 3):
        assert w.homogeneous_part(d).terms == frozenset()
    assert w.homogeneous_part(4) == F2Poly(3, 4, [(2, 1, 1), (1, 2, 1), (1, 1, 2)])


def test_omega_guards():
    with pytest.raises(ValueError):
        omega(0, 4)
    with pytest.raises(ValueError):
        omega(3, 3)
    with pytest.raises(ValueError):
        check_identities(5)


def test_vanishing_range_doubles():
    first = [omega(n, 2 ** (n - 1)).min_positive_degree() for n in (1, 2, 3, 4)]
    assert first == [1, 2, 4, 8]


def test_top_class_forms_agree():
    for n in (1, 2, 3, 4):
        top = 2 ** (n - 1)
        product_form = top_class_product(n)
        sum_form = top_class_sum(n)
        assert product_form == sum_form
        assert omega(n, top).homogeneous_part(top) == product_form


def test_top_class_small_cases_frozen():
    assert top_class_sum(1) == F2Poly(1, 1, [(1,)])
    assert top_class_sum(2) == F2Poly(2, 2, [(1, 1)])
    # exponent multisets {4,2,1,1} in 12 arrangements plus {2,2,2,2}
    assert len(top_class_sum(4).terms) == 13
    assert (2, 2, 2, 2) in top_class_sum(4).terms


def test_even_substitution_collapses_series():
    assert even_substitution_is_trivial(3, 6)
    assert even_substitution_is_trivial(4, 9)
    with pytest.raises(ValueError):
        even_substitution_is_trivial(2, 4)


def test_identity_report_lines():
    for n in (1, 2, 3, 4):
        report = check_identities(n)
        assert report.ok, report.first_failure
        assert report.lines() == [
            "PASS vanishing<%d" % 2 ** (n - 1),
            "PASS product=sum",
        ]
