"""Lambda-operations on hand-built models.

Two tiny models are assembled inline so this file does not depend on the
shipped constructors: the integers with binomial lambda-structure, and the
rank-two real Grothendieck-Witt ring Z[L]/(L^2 - 1) with lambda_t(L) = 1+Lt.
Known closed forms on those models are the oracles.
"""

import random

import pytest

from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import (
    RingModel,
    gamma_k,
    gamma_total,
    lambda_k,
    lambda_total,
    psi_k,
    validate_model,
    verify_special_pair,
)
from gwgamma.series import TruncSeries
from reference import binomial, line_ring, square_two_ring


def integer_model():
    group = GroupPresentation((0,), ("one",))
    return RingModel(
        name="Z",
        group=group,
        unit=(1,),
        mul={(0, 0): (1,)},
        aug=(1,),
        lambda_on_basis=[[(1,)]],
        hyperbolic=[(2,)],
    )


def real_gw_model(lambda_L=((0, 1),)):
    group = GroupPresentation((0, 0), ("one", "L"))
    return RingModel(
        name="GW(R)",
        group=group,
        unit=(1, 0),
        mul={(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)},
        aug=(1, 1),
        lambda_on_basis=[[(1, 0)], list(lambda_L)],
        hyperbolic=[(1, 1)],
    )


def test_integer_model_binomial_lambda():
    m = integer_model()
    assert validate_model(m).ok
    for n in range(-6, 7):
        x = m.element((n,))
        for k in range(1, 8):
            assert lambda_k(x, k) == m.element((binomial(n, k),))
            assert gamma_k(x, k) == m.element((binomial(n + k - 1, k),))
            assert psi_k(x, k) == x


def test_real_gw_validates_and_lambda_values():
    m = real_gw_model()
    report = validate_model(m)
    assert report.ok, report.first_failure
    one, L = m.basis_elements()
    eta = L - one
    # lambda_t(L-1) = (1+Lt)/(1+t): coefficients alternate +-eta
    lam = lambda_total(eta, 8).rows()
    for k in range(1, 9):
        expect = eta if k % 2 else -eta
        assert lam[k] == expect.value.coeffs
    # gamma-series of a line-minus-one terminates at degree 1
    gam = gamma_total(eta, 8).rows()
    assert gam[1] == eta.value.coeffs
    for k in range(2, 9):
        assert not any(gam[k])


def test_addition_law_random_elements():
    m = real_gw_model()
    rng = random.Random(42)
    for _ in range(30):
        x = m.element((rng.randrange(-5, 6), rng.randrange(-5, 6)))
        y = m.element((rng.randrange(-5, 6), rng.randrange(-5, 6)))
        lx, ly = lambda_total(x, 10), lambda_total(y, 10)
        assert lambda_total(x + y, 10) == lx * ly
        gx, gy = gamma_total(x, 10), gamma_total(y, 10)
        assert gamma_total(x + y, 10) == gx * gy


def test_gamma_is_lambda_of_shift():
    m = real_gw_model()
    rng = random.Random(43)
    one = m.unit_element
    for _ in range(20):
        x = m.element((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        for n in range(1, 7):
            assert gamma_k(x, n) == lambda_k(x + (n - 1) * one, n)


def test_psi_properties():
    m = real_gw_model()
    one, L = m.basis_elements()
    # on a line element: rank for even k, the line itself for odd k
    for k in range(1, 9):
        expect = L if k % 2 else one
        assert psi_k(L, k) == expect
    # psi^2(x) = x^2 - 2 lambda^2(x), and additivity
    rng = random.Random(44)
    for _ in range(20):
        x = m.element((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        y = m.element((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        assert psi_k(x, 2) == x * x - 2 * lambda_k(x, 2)
        for k in (2, 3, 5):
            assert psi_k(x + y, k) == psi_k(x, k) + psi_k(y, k)


def test_special_identities_hold_on_real_gw():
    m = real_gw_model()
    for x in m.basis_elements():
        for y in m.basis_elements():
            report = verify_special_pair(x, y)
            assert report.ok, report.first_failure
    one, L = m.basis_elements()
    report = verify_special_pair(L - one, 3 * L + one)
    assert report.ok, report.first_failure


def test_special_identities_fail_on_corrupted_series():
    # lambda^2(L) = L is wrong for a line element; both the validator's
    # augmentation check and the special identities must notice
    m = real_gw_model(lambda_L=((0, 1), (0, 1)))
    assert not validate_model(m).ok
    one, L = m.basis_elements()
    assert not verify_special_pair(L, L).ok


def test_torsion_series_consistency_check():
    # Z/2 with a fake lambda-series whose square is not 1 must be rejected
    group = GroupPresentation((0, 2), ("one", "t"))
    m = RingModel(
        name="broken",
        group=group,
        unit=(1, 0),
        mul={(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 0)},
        aug=(1, 0),
        lambda_on_basis=[[(1, 0)], [(0, 1), (1, 0)]],
    )
    report = validate_model(m)
    names = {c.name: c.ok for c in report.checks}
    assert not names["lambda-series respect torsion orders"]


def test_lambda_total_respects_truncation_bound():
    m = real_gw_model()
    with pytest.raises(ValueError):
        lambda_total(m.basis_element(1), 17)


def test_unit_series():
    m = real_gw_model()
    one = m.unit_element
    lam = lambda_total(one, 6).rows()
    assert lam[1] == one.value.coeffs
    assert not any(map(any, lam[2:]))
    assert lambda_total(m.zero_element, 6) == TruncSeries(m, [one.value.coeffs], 6)


def test_non_neutral_unit_refused_before_any_series():
    # one*one = 3*one + x: the constant term of every basis series stops
    # being the unit, and the digits of the series powers double at every
    # squaring; verify_special_pair on this pair ran for minutes before
    # lambda_total refused such a model
    m = line_ring("non-neutral", (0, 0), {(0, 0): (3, 1), (0, 1): (0, 1), (1, 1): (1, 0)},
                  (1, 0), names=("one", "x"))
    report = validate_model(m)
    assert not {c.name: c.ok for c in report.checks}["unit is multiplicatively neutral"]
    x, y = m.element((5, -7)), m.element((-3, 4))
    for call in (
        lambda: verify_special_pair(x, y),
        lambda: lambda_total(x),
        lambda: gamma_total(x, 4),
        lambda: lambda_k(x, 2),
        lambda: psi_k(x, 3),
    ):
        with pytest.raises(ValueError, match="unit is not multiplicatively neutral"):
            call()


def test_augmentation_checked_past_the_stored_degrees():
    # d is multiplicative and lambda^1 the identity, but d(lambda^2 V) = 0
    # != C(2, 2) = 1.  The check once read only the stored degree 1 and
    # passed the model
    m = square_two_ring()
    failed = [c for c in validate_model(m).checks if not c.ok]
    assert [(c.name, c.detail) for c in failed] == [
        ("augmentation compatible with lambda-series", "d(lambda^2(b1)) = 0 != C(2,2)")]
