"""Truncated-series arithmetic against literal polynomial substitution.

The series here have coefficients in Z, the ring of the complex point.
"""

import random
from math import comb

import pytest

from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import RingModel
from gwgamma.models import gw_point, gw_punctured_a5
from gwgamma.series import TruncSeries

ONE = gw_point("C").unit_element


def binomial(n, k):
    """C(n, k) for every integer n, 0 for k < 0: the reference for the
    binomial coefficients the series compute themselves, with
    C(n, k) = (-1)^k C(k - n - 1, k) for n < 0."""
    if k < 0:
        return 0
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def z_series(coeffs, one=ONE):
    """The series with these integer coefficients, over Z with unit ``one``."""
    return TruncSeries(one.model, [tuple(c * u for u in one.value.coeffs) for c in coeffs],
                      len(coeffs) - 1)


def z_coeffs(series):
    """The integer coefficients of a series over Z."""
    return tuple(r[0] for r in series.rows())


def poly_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j <= order:
                    out[i + j] += x * y
    return out


def literal_substitution(coeffs, inner, order):
    """Evaluate sum c_i * inner(t)^i with plain polynomial arithmetic."""
    out = [0] * (order + 1)
    power = [1] + [0] * order
    for i, c in enumerate(coeffs):
        if c:
            for k in range(order + 1):
                out[k] += c * power[k]
        power = poly_mul(power, inner, order)
    return out


def test_mul_inverse_geometric():
    n = 10
    s = z_series((1, -1) + (0,) * (n - 1))  # 1 - t
    inv = s.inverse()
    assert z_coeffs(inv) == (1,) * (n + 1)
    assert z_coeffs(s * inv) == (1,) + (0,) * n
    with pytest.raises(ValueError):
        z_series((2, 1, 1)).inverse()


def test_pow_binomial_series():
    n = 12
    one_plus_t = z_series((1, 1) + (0,) * (n - 1))
    for e in range(-6, 7):
        got = one_plus_t.pow(e)
        assert z_coeffs(got) == tuple(binomial(e, k) for k in range(n + 1))


def test_pow_places_a_unit_of_two_coordinates():
    # Z x Z on the idempotents e = (1, 0) and f = (0, 1), unit e + f
    m = RingModel("Z x Z", GroupPresentation((0, 0), ("e", "f")), (1, 1),
                  {(0, 0): (1, 0), (1, 1): (0, 1)}, (1, 0), [[(1, 0)], [(0, 1)]])
    s = TruncSeries(m, [(1, 1), (2, 0)], 3)  # 1 + 2e t, and e^k = e
    assert s.pow(0).rows() == [(1, 1), (0, 0), (0, 0), (0, 0)]
    assert s.pow(2).rows() == [(1, 1), (4, 0), (4, 0), (0, 0)]
    assert s.pow(3).rows() == [(1, 1), (6, 0), (12, 0), (8, 0)]
    assert s.inverse().rows() == [(1, 1), (-2, 0), (4, 0), (-8, 0)]
    # a coordinate of the unit missing or wrong
    for constant in [(1, 0), (0, 1), (0, 0), (1, 2), (-1, 1)]:
        with pytest.raises(ValueError, match="non-unit constant term"):
            TruncSeries(m, [constant, (2, 0)], 3).pow(2)
    # a nonzero coordinate beside the unit's: L over the real point
    with pytest.raises(ValueError, match="non-unit constant term"):
        TruncSeries(gw_point("R"), [(1, 1), (0, 1)], 3).pow(2)


@pytest.mark.parametrize("order", [4, 8, 12])
def test_substitutions_match_literal_polynomials(order):
    rng = random.Random(order)
    geometric = [0] + [1] * order          # t/(1-t) = t + t^2 + ...
    alternating = [0] + [(-1) ** (k - 1) for k in range(1, order + 1)]
    for _ in range(25):
        coeffs = [1] + [rng.randrange(-5, 6) for _ in range(order)]
        s = z_series(coeffs)
        assert (
            list(z_coeffs(s.substitute_geometric()))
            == literal_substitution(coeffs, geometric, order)
        )
        assert (
            list(z_coeffs(s.substitute_alternating()))
            == literal_substitution(coeffs, alternating, order)
        )


@pytest.mark.parametrize("order", [4, 8, 12])
def test_substitutions_roundtrip(order):
    rng = random.Random(100 + order)
    for _ in range(25):
        s = z_series([1] + [rng.randrange(-5, 6) for _ in range(order)])
        assert s.substitute_geometric().substitute_alternating() == s
        assert s.substitute_alternating().substitute_geometric() == s


def test_gamma_of_integer_lambda_series():
    # lambda_t(n) = (1+t)^n, so gamma_t(n) = (1-t)^(-n)
    n = 9
    one_plus_t = z_series((1, 1) + (0,) * (n - 1))
    one_minus_t = z_series((1, -1) + (0,) * (n - 1))
    for e in range(-5, 6):
        lam = one_plus_t.pow(e)
        assert lam.substitute_geometric() == one_minus_t.pow(-e)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        z_series((1, 2)) * z_series((1, 2, 3))


def test_rows_are_reduced_then_cut_or_padded_to_the_order():
    # Z + Z/2 eps: each row is reduced in its torsion coordinate, the rows
    # past the order are dropped, and zero degrees fill up to it
    m = gw_punctured_a5(3)
    rows = [(1, 0), (3, 5), (-1, -3)]
    assert TruncSeries(m, rows, 2).rows() == [(1, 0), (3, 1), (-1, 1)]
    assert TruncSeries(m, rows, 1).rows() == [(1, 0), (3, 1)]
    assert TruncSeries(m, rows, 1) == TruncSeries(m, rows[:2], 1)
    assert TruncSeries(m, rows, 4).rows() == [(1, 0), (3, 1), (-1, 1), (0, 0), (0, 0)]
    assert TruncSeries(m, rows, 4) == TruncSeries(m, rows + [(0, 2)] * 2, 4)
    assert TruncSeries(m, [], 2).rows() == [(0, 0)] * 3
