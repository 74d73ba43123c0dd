"""Differential test of the ``special`` checker's fold on coefficient tuples.

``lambdaring._fold`` evaluates a universal polynomial at sparse entry lists:
each product is one ``RingModel.dot``, each sum one integer vector reduced
once, and the prefixes made of its first variables can be kept across
calls.  The reference is ``MultiPoly.evaluate`` on ring elements.  Both
must give equal values on every model with a neutral unit, also on the
drawn models that fail the ring verdict, where the bracketing of each
monomial decides its value, and also when the prefixes of an earlier
polynomial with the same leading values are reused.
"""

from hypothesis import given, settings, strategies as st

from gwgamma.abelian import _entries
from gwgamma.lambdaring import _fold
from gwgamma.symfunc import compose_universal, product_universal
from test_arith_oracle import ring_models

PRODUCTS = [(n, product_universal(n)) for n in range(1, 5)]
COMPOSITIONS = [(m * n, compose_universal(m, n))
                for m in range(1, 7) for n in range(1, 7) if m * n <= 6]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def ring_values(m, count):
    """Zero, the unit, the unit plus a small element, and small elements."""
    rank = m.group.rank
    small = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(m.element)
    kinds = st.one_of(
        st.just(m.zero_element),
        st.just(m.unit_element),
        small.map(lambda v: m.unit_element + v),
        small,
    )
    return st.lists(kinds, min_size=count, max_size=count)


def reference(poly, values):
    one = values[0].model.unit_element
    return poly.evaluate(values, one).value.coeffs


def fold(poly, values, memo=None, shared=0):
    memo = {} if memo is None else memo
    m = values[0].model
    return _fold(m, poly, [_entries(v.value.coeffs) for v in values], memo, shared)


@SETTINGS
@given(st.data(), ring_models(neutral_unit=True).filter(lambda m: not m._is_ring))
def test_fold_matches_evaluate_off_the_ring_verdict(data, m):
    for _, poly in PRODUCTS + COMPOSITIONS:
        values = data.draw(ring_values(m, poly.nvars))
        assert fold(poly, values) == reference(poly, values)


@SETTINGS
@given(st.data(), ring_models(neutral_unit=True))
def test_shared_prefixes_match_evaluate(data, m):
    # as in the checker: one x, its prefixes kept over every product check
    # of two y and every composition check
    xs = data.draw(ring_values(m, 6))
    ys = [data.draw(ring_values(m, 4)) for _ in range(2)]
    memo = {}
    for y in ys:
        for n, poly in PRODUCTS:
            values = xs[:n] + y[:n]
            assert fold(poly, values, memo, n) == reference(poly, values)
    for weight, poly in COMPOSITIONS:
        assert fold(poly, xs[:weight], memo, weight) == reference(poly, xs[:weight])
