"""Differential test of the identity checkers.

The references, in ``tests/reference.py``, are the earlier checkers.
``oracle_validate`` is the earlier ``validate_model``: ``RingElement``
products for every bracketing of every basis triple and a loop per check
that ran to the end, here keeping every offending case in the order it met
them (the earlier one reported the last).  It compares all three
bracketings of a triple i < j < k, the third after the other two, as
``validate_model`` does.  On models drawn under ``oracle_arithmetic`` it
multiplies with the earlier per-pair table, not the sparse rows.
``oracle_special_pair``, shared with ``tests/test_special_oracle.py``, is
the earlier ``verify_special_pair``, which built lambda_t(x), lambda_t(y)
and lambda_t(x*y) afresh for every pair.

The current ``validate_model`` must agree on every check's verdict and
name the first offending case; ``verify_special_pair`` must give an equal
``Report``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.lambdaring import RingModel, validate_model, verify_special_pair
from gwgamma.models import BUILTINS
from reference import (
    CLI_BUILTINS, CLI_IDS, augmented_ring_models, dense_mul, oracle_products, oracle_special_pair,
    oracle_validate, ring_models, square_two_ring)


def assert_names_first_case(m):
    report = validate_model(m)
    with oracle_products(m):
        expected = oracle_validate(m)
    assert [c.name for c in report.checks] == [name for name, _ in expected]
    for check, (_, cases) in zip(report.checks, expected):
        assert check.ok == (not cases), check.name
        if cases:
            assert check.detail == cases[0], check.name
    return report


SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=CLI_IDS)
def test_builtin_validation_matches_oracle(name, kwargs):
    assert assert_names_first_case(BUILTINS[name](**kwargs)).ok


def test_augmentation_past_stored_degrees_matches_oracle():
    # V*V = 2V, d(V) = 2 and lambda_t(V) = 1 + V t: the first case is
    # d(lambda^2 V) = 0 != C(2, 2), a degree past the stored one
    report = assert_names_first_case(square_two_ring())
    assert report.first_failure.detail == "d(lambda^2(b1)) = 0 != C(2,2)"


@st.composite
def cut_series_models(draw):
    """``augmented_ring_models``, ranks -1..2, with each basis series cut
    after a drawn degree: the augmentation check then meets zero degrees
    past the stored ones, where C(d(b), k) need not vanish."""
    m = draw(augmented_ring_models())
    lam = [[g.coeffs for g in s[:draw(st.integers(1, m.trunc))]] for s in m.lambda_on_basis]
    return RingModel("cut", m.group, m.unit.coeffs, dense_mul(m), m.aug, lam, trunc=m.trunc)


@SETTINGS
@given(cut_series_models())
def test_cut_series_validation_matches_oracle(m):
    assert_names_first_case(m)


@SETTINGS
@given(ring_models(neutral_unit=False))
def test_drawn_model_validation_matches_oracle(m):
    assert_names_first_case(m)


@SETTINGS
@given(ring_models(neutral_unit=True))
def test_drawn_neutral_model_validation_matches_oracle(m):
    assert_names_first_case(m)


@st.composite
def small_pairs(draw):
    """Two small elements of a drawn model with a neutral unit; without one,
    the composition checks on drawn models ran for minutes."""
    m = draw(ring_models(neutral_unit=True))
    vec = st.lists(st.integers(-2, 2), min_size=m.group.rank, max_size=m.group.rank)
    return m.element(draw(vec)), m.element(draw(vec))


@SETTINGS
@given(small_pairs(), st.integers(1, 3))
def test_special_pair_matches_oracle(pair, bound):
    x, y = pair
    assert verify_special_pair(x, y, bound) == oracle_special_pair(x, y, bound)


def test_special_pair_on_builtin_basis_pairs_matches_oracle():
    for m in (BUILTINS["gw_point"]("R"), BUILTINS["gw_projective"]("C", 4),
              BUILTINS["gw_punctured_a5"](3), BUILTINS["gw_surface_cxp1"](1)):
        basis = m.basis_elements()
        for i, x in enumerate(basis):
            for y in basis[i:]:
                assert verify_special_pair(x, y) == oracle_special_pair(x, y), m.name
