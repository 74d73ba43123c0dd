"""Differential test of the one polynomial fold off the ring verdict.

The reference is ``test_evaluate_oracle.oracle_evaluate``, the full left
fold.  ``lambdaring._evaluate`` must give its values on every model with
a neutral unit, also on the drawn models that fail ``is_ring``, where the
bracketing of each monomial decides its value: at P_1..P_4 and every
P_{m,n} with mn <= 6.  ``psi_k`` must equal the reference fold of the
Newton polynomial at lambda^1..lambda^k, on the small builtins and on
drawn models, rings or not.
"""

import pytest
from hypothesis import given, strategies as st

from gwgamma.lambdaring import lambda_total, psi_k
from gwgamma.models import BUILTINS
from gwgamma.symfunc import compose_universal, newton_psi, product_universal
from test_arith_oracle import elements_of, is_ring, ring_models
from test_evaluate_oracle import (
    SETTINGS, SMALL_BUILTINS, draw_values, fold, oracle_evaluate, reference, value_kinds)

PRODUCTS = [product_universal(n) for n in range(1, 5)]
COMPOSITIONS = [compose_universal(m, n)
                for m in range(1, 7) for n in range(1, 7) if m * n <= 6]


@SETTINGS
@given(st.data(), ring_models(neutral_unit=True, non_ring=True))
def test_fold_matches_evaluate_off_the_ring_verdict(data, m):
    assert not is_ring(m)
    # the values of every polynomial in one draw, each its own slice
    polys = PRODUCTS + COMPOSITIONS
    values = draw_values(data, value_kinds(m), sum(p.nvars for p in polys))
    for poly in polys:
        mine, values = values[:poly.nvars], values[poly.nvars:]
        assert fold(poly, mine) == reference(poly, mine)


def small_builtin(name, flags):
    kwargs = {flag[2:]: value if flag == "--base" else int(value)
              for flag, value in zip(flags[::2], flags[1::2])}
    return BUILTINS[name](**kwargs)


def psi_reference(x, k):
    lam = elements_of(lambda_total(x, k))
    return oracle_evaluate(newton_psi(k), list(lam[1:k + 1]), x.model.unit_element)


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
    for x in draw_values(data, value_kinds(m), 3) + list(m.basis_elements()):
        for k in range(1, min(6, m.trunc) + 1):
            assert psi_k(x, k) == psi_reference(x, k)
