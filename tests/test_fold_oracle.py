"""Differential test of the one polynomial fold on coefficient tuples.

``MultiPoly.evaluate`` folds a universal polynomial at sparse entry lists
with a supplied product; ``lambdaring._evaluate`` makes that product one
``RingModel.dot`` and reduces the sum once, as the ``special`` checker and
``psi_k`` do.  The reference is ``ring_evaluate``, the same fold on ring
elements.  Both must give equal values on every model with a neutral unit,
also on the drawn models that fail ``is_ring``, where the bracketing
of each monomial decides its value.  ``psi_k`` must
equal the reference fold of the Newton polynomial at lambda^1..lambda^k.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import _entries
from gwgamma.lambdaring import _evaluate, lambda_total, psi_k
from gwgamma.models import BUILTINS
from gwgamma.symfunc import compose_universal, newton_psi, product_universal
from test_arith_oracle import elements_of, is_ring, ring_models
from test_evaluate_oracle import SMALL_BUILTINS, ring_evaluate

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
    return ring_evaluate(poly, values, one).value.coeffs


def fold(poly, values):
    m = values[0].model
    return _evaluate(m, poly, [_entries(v.value.coeffs) for v in values])


@SETTINGS
@given(st.data(), ring_models(neutral_unit=True).filter(lambda m: not is_ring(m)))
def test_fold_matches_evaluate_off_the_ring_verdict(data, m):
    for _, poly in PRODUCTS + COMPOSITIONS:
        values = data.draw(ring_values(m, poly.nvars))
        assert fold(poly, values) == reference(poly, values)


def psi_reference(x, k):
    lam = elements_of(lambda_total(x, k))
    return ring_evaluate(newton_psi(k), list(lam[1:k + 1]), x.model.unit_element)


def small_builtin(name, flags):
    kwargs = {flag[2:]: value if flag == "--base" else int(value)
              for flag, value in zip(flags[::2], flags[1::2])}
    return BUILTINS[name](**kwargs)


@pytest.mark.parametrize("name,flags", SMALL_BUILTINS,
                         ids=["-".join((n,) + f[1::2]) for n, f in SMALL_BUILTINS])
def test_psi_matches_reference_on_builtins(name, flags):
    m = small_builtin(name, flags)
    for x in m.basis_elements():
        for k in range(1, min(6, m.trunc) + 1):
            assert psi_k(x, k) == psi_reference(x, k)


@SETTINGS
@given(st.data(), ring_models(neutral_unit=True))
def test_psi_matches_reference_on_drawn_models(data, m):
    # also on models that fail is_ring, where psi_k is not additive
    for x in data.draw(ring_values(m, 3)) + list(m.basis_elements()):
        for k in range(1, min(6, m.trunc) + 1):
            assert psi_k(x, k) == psi_reference(x, k)
