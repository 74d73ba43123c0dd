"""Differential test of ``TruncSeries.pow``.

The reference is the earlier ``pow``, ``test_arith_oracle.oracle_pow``:
binary exponentiation of the series, or of its inverse for a negative
exponent, the inverse solved by forward substitution (``oracle_inverse``).
It lives there only as an oracle, and is also compared there on drawn
rings.  On a ring model (neutral unit, associative basis products, products
killed by the torsion orders; ``is_ring``) the binomial table must give the
same series for every exponent.  On a model that is no ring, ``pow`` is the
same binomial sum, and must equal ``binomial_pow``, the sum built from
products of the series.  ``is_ring`` itself must agree with the checker
oracle's cases on drawn models.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import RingModel, validate_model
from test_arith_oracle import (
    binomial_pow,
    elements_of,
    is_ring,
    oracle_inverse,
    oracle_pow,
    ring_models,
    series_of,
)
from test_checker_oracle import oracle_products, oracle_validate


def ring(name, orders, mul):
    rank = len(orders)
    group = GroupPresentation(orders, tuple("b%d" % i for i in range(rank)))
    unit = tuple(int(t == 0) for t in range(rank))
    lam = [[tuple(int(t == i) for t in range(rank))] for i in range(rank)]
    return RingModel(name, group, unit, mul, (1,) + (0,) * (rank - 1), lam, trunc=8)


def cyclic_group_ring(n):
    """Z[C_n], basis g^0..g^(n-1)."""
    def vec(i):
        return tuple(int(t == i % n) for t in range(n))
    return ring("Z[C_%d]" % n, (0,) * n,
                {(i, j): vec(i + j) for i in range(n) for j in range(i, n)})


def z_plus_z2(square):
    """Z + Z/2 x with x*x = ``square``."""
    return ring("Z+Z/2", (0, 2), {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): square})


RINGS = [cyclic_group_ring(n) for n in range(1, 7)] + [
    z_plus_z2((0, 0)),
    z_plus_z2((0, 1)),
]

# exponents the projective tower raises its twisted-class series to
TOWER_EXPONENTS = [-792, 495, 210]

EXPONENTS = st.one_of(st.integers(-1000, 1000), st.sampled_from(TOWER_EXPONENTS))


@st.composite
def ring_series(draw):
    m = draw(st.sampled_from(RINGS))
    order = draw(st.integers(0, 8))
    vec = st.lists(st.integers(-3, 3), min_size=m.group.rank, max_size=m.group.rank)
    body = [m.element(draw(vec)) for _ in range(order)]
    return series_of([m.unit_element, *body])


def test_drawn_rings_are_rings():
    assert all(is_ring(m) for m in RINGS)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.booleans().flatmap(ring_models))
def test_is_ring_matches_oracle_validation(m):
    # the oracle multiplies with the drawn model's earlier per-pair table,
    # not with the sparse rows is_ring reads
    with oracle_products(m):
        cases = dict(oracle_validate(m))
    kills = [c for c in cases["products respect torsion orders"] if c.startswith("order ")]
    assert is_ring(m) == (
        not cases["unit is multiplicatively neutral"]
        and not cases["multiplication associative on basis"]
        and not kills
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(ring_series(), EXPONENTS)
def test_pow_matches_binary_exponentiation(s, e):
    got = s.pow(e)
    if e not in (0, 1):
        # the binomial table of s itself produced it, S^-1 included
        assert len(s._powers) == max(min(e, s.order) if e > 0 else s.order, 1)
    assert got == oracle_pow(s, e)


def test_one_table_serves_every_exponent():
    m = cyclic_group_ring(5)
    s = series_of([m.unit_element] + [m.element((1, -2, 0, 3, 1))] * 8)
    for e in TOWER_EXPONENTS + [-1, 2, 3, 7]:
        assert s.pow(e) == oracle_pow(s, e)
    assert len(s._powers) == 8
    assert s.inverse()._powers is None


# -(2^127) is one chain of squarings for the oracle, -(2^127 - 1) sets every
# bit of the binary expansion
HUGE_NEGATIVE = [-2, -(2 ** 127), -(2 ** 127 - 1)]


@pytest.mark.parametrize("square", [(0, 0), (0, 1)])
@pytest.mark.parametrize("order", [0, 1, 8])
@pytest.mark.parametrize("e", HUGE_NEGATIVE)
def test_huge_negative_exponents(square, order, e):
    # over Z + Z/2 x: for e = -(2^127) the binomials C(e, k) run to about
    # 2^1000 in the Z coordinate, and the x coordinate reduces them mod 2
    m = z_plus_z2(square)
    body = [m.element((d + 1, d % 2 + 1)) for d in range(order)]
    s = series_of([m.unit_element, *body])
    got = s.pow(e)
    # the table of T^1..T^N served, not an inverse
    assert len(s._powers) == max(order, 1)
    assert got == oracle_pow(s, e)


def test_non_ring_model_takes_the_binomial_sum():
    # Z + Z/2 x with x*x = one: 2 * x * x = 2 is not zero, so the product
    # depends on representatives; the binomial sum gives 1 + x t + 6 t^2
    # where binary exponentiation of the inverse gave 1 + x t - 2 t^2, and
    # S^-1 = 1 - T + T^2 is 1 + x t + t^2 where forward substitution gave
    # 1 + x t - t^2 (a right inverse there, which the sum is not)
    m = z_plus_z2((1, 0))
    assert m._unit_neutral and not is_ring(m)
    one, x = m.unit_element, m.basis_element(1)
    s = series_of([one, x], 2)
    assert elements_of(s.pow(-3)) == (one, x, 6 * one)
    assert elements_of(oracle_pow(s, -3))[2] == -2 * one
    assert elements_of(s.inverse()) == (one, x, one)
    assert elements_of(oracle_inverse(s)) == (one, x, -one)
    assert s * oracle_inverse(s) == series_of([one], 2) != s * s.inverse()
    for e in (-3, -2, -1, 2, 3, 5):
        assert s.pow(e) == binomial_pow(s, e)


def test_three_bracketings_model_takes_the_binomial_sum():
    # b1*b3 = b2 and b2*b2 = b2: (b1*b2)*b3 = b1*(b2*b3) = 0, but
    # b2*(b1*b3) = b2, so the model is not associative and validate_model,
    # which compares the third bracketing too, rejects it.
    # (1 + (b1 + b3) t)^4 has 0 in degree 4 by the binomial sum, since
    # T^4 = T * (T * T^2) vanishes, and 4 b2 by binary exponentiation
    vec = [tuple(int(t == i) for t in range(4)) for i in range(4)]
    mul = {(0, i): vec[i] for i in range(4)}
    m = ring("three bracketings", (0,) * 4, {**mul, (1, 3): vec[2], (2, 2): vec[2]})
    report = validate_model(m)
    assert not is_ring(m) and not report.ok
    assert [c.name for c in report.checks if not c.ok] == [
        "multiplication associative on basis"
    ]
    assert report.first_failure.detail == "(b1*b2)*b3 != b2*(b1*b3)"
    s = series_of([m.unit_element, m.element((0, 1, 0, 1))], 4)
    assert elements_of(s.pow(4))[4] == m.zero_element
    assert elements_of(oracle_pow(s, 4))[4] == 4 * m.basis_element(2)
    assert s.pow(4) == binomial_pow(s, 4)
