"""Differential test of the column product of ``TruncSeries``.

A product packs each coordinate column of both factors into one integer and
multiplies the packed columns pairwise (Kronecker substitution).  The
reference is ``oracle_series_mul`` of ``test_arith_oracle``: one ring
product per pair of coefficients, through the per-pair product table of the
earlier arithmetic, summed one term at a time.  The drawn models include
ones that are not rings, free and torsion coordinates side by side,
coefficients of both signs beyond 2^64, orders 0 to 20, zero columns and
the zero series; the extremal cases put the product coefficients just below
the slot width the product packs them in.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import RingModel
from gwgamma.series import TruncSeries
from test_arith_oracle import is_ring, oracle_arithmetic, ring_models


def oracle_product(s, t):
    with oracle_arithmetic():
        return s * t


def assert_matches_oracle(s, t):
    got, want = s * t, oracle_product(s, t)
    assert got == want
    assert got.rows() == want.rows()


COEFFICIENT = st.one_of(
    st.integers(-9, 9),
    st.integers(2**64, 2**80),
    st.integers(-(2**80), -(2**64)),
)


@st.composite
def model_and_series_pair(draw):
    """A drawn model (a ring or not) and two series of one order in 0..20,
    some of whose coordinate columns are zero throughout, either of which
    may be the zero series."""
    m = draw(st.booleans().flatmap(ring_models))
    rank = m.group.rank
    order = draw(st.integers(0, 20))
    pair = []
    for _ in range(2):
        if draw(st.integers(0, 9)) == 0:
            pair.append(TruncSeries(m, [], order))
            continue
        live = draw(st.lists(st.booleans(), min_size=rank, max_size=rank))
        pair.append(TruncSeries(m, [
            [draw(COEFFICIENT) if on else 0 for on in live] for _ in range(order + 1)
        ], order))
    return pair


@settings(max_examples=150, deadline=None, derandomize=True)
@given(model_and_series_pair())
def test_column_product_matches_oracle(pair):
    s, t = pair
    assert_matches_oracle(s, t)
    assert_matches_oracle(t, s)


def model(orders, mul, name="extremal"):
    """A model with these orders and structure constants, built with the
    oracle's per-pair table too."""
    rank = len(orders)
    group = GroupPresentation(orders, tuple("b%d" % i for i in range(rank)))
    unit = tuple(int(t == 0) for t in range(rank))
    lam = [[tuple(int(t == i) for t in range(rank))] for i in range(rank)]
    with oracle_arithmetic():
        return RingModel(name, group, unit, mul, (1,) * rank, lam, trunc=1)


def constant_series(m, vec, order):
    return TruncSeries(m, [vec] * (order + 1), order)


# 2^64 - 1 has 64 bits, 15 terms 4 bits, and (2^50 - 1) // 9 * 9 = 2^50 - 7
# 50 bits: each slot holds 64 + 64 + 4 + 50 magnitude bits and a sign bit,
# and the top coefficient of the product below, 15 (2^64 - 1)^2 (2^50 - 7),
# is more than 2^181.9
BIG = 2**64 - 1
ORDER = 14
CONSTANT = (2**50 - 1) // 9


@pytest.mark.parametrize("sign_a", [1, -1])
@pytest.mark.parametrize("sign_b", [1, -1])
@pytest.mark.parametrize("sign_c", [1, -1])
def test_extremal_coefficients_fill_the_slot(sign_a, sign_b, sign_c):
    # every ordered pair of three free coordinates multiplies into b0 with
    # one constant, so the nine column products of each degree add up with
    # one sign
    c = sign_c * CONSTANT
    m = model((0, 0, 0), {(i, j): (c, 0, 0) for i in range(3) for j in range(i, 3)})
    assert m._constant_bits == 50
    s = constant_series(m, (sign_a * BIG,) * 3, ORDER)
    t = constant_series(m, (sign_b * BIG,) * 3, ORDER)
    top = (s * t).rows()[ORDER][0]
    assert top == sign_a * sign_b * sign_c * 15 * 9 * CONSTANT * BIG**2
    assert abs(top) > 2**181.9 and abs(top) < 2**182
    assert_matches_oracle(s, t)


def test_extremal_products_into_torsion():
    # the same sums, reduced modulo the order of a torsion coordinate, next
    # to a free coordinate that takes them unreduced with the other sign
    c = CONSTANT
    m = model((0, 7), {(0, 0): (c, -c), (0, 1): (-c, c), (1, 1): (0, 3)})
    s = constant_series(m, (BIG, 5), ORDER)
    t = constant_series(m, (-BIG, 6), ORDER)
    assert_matches_oracle(s, t)
    assert_matches_oracle(s, s)


def test_large_structure_constants():
    # constants beyond 2^64 of both signs, on a model that is not a ring
    big = 3**50
    m = model((0, 0, 4), {(0, 0): (big, -big, 1), (1, 2): (-big, 2, 3),
                          (2, 2): (1, big, big)})
    assert not is_ring(m)
    s = TruncSeries(m, [(BIG, -BIG, 3), (-1, 0, 1), (0, 2**70, 2)], 5)
    t = TruncSeries(m, [(-(2**100), 1, 1)] * 6, 5)
    assert_matches_oracle(s, t)
    assert_matches_oracle(t, s)


def test_zero_series_and_order_zero():
    m = model((0, 2), {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)})
    zero = TruncSeries(m, [], 3)
    s = TruncSeries(m, [(3, 1), (-2, 0), (0, 0), (0, 1)], 3)
    assert s * zero == zero * s == zero
    assert (s * zero).rows() == [(0, 0)] * 4
    x = TruncSeries(m, [(-(2**65), 1)], 0)
    assert x.order == 0
    assert_matches_oracle(x, x)
    assert_matches_oracle(x, TruncSeries(m, [(0, 0)], 0))


def test_mismatched_orders_and_models_raise():
    m = model((0,), {(0, 0): (1,)})
    other = model((0,), {(0, 0): (1,)})
    s = constant_series(m, (2,), 3)
    with pytest.raises(ValueError, match="different orders"):
        s * constant_series(m, (2,), 4)
    with pytest.raises(ValueError, match="different models"):
        s * constant_series(other, (2,), 3)
    # a row is a coordinate tuple of the model's own group
    with pytest.raises(ValueError, match="length 2 for presentation of rank 1"):
        TruncSeries(m, [(1,), (1, 0)], 1)
