"""Differential test of the identity checkers.

The references below are the earlier checkers.  ``oracle_validate`` is the
earlier ``validate_model``: ``RingElement`` products for every bracketing
of every basis triple and a loop per check that ran to the end, here keeping
every offending case in the order it met them (the earlier one reported the
last).  It compares all three bracketings of a triple i < j < k, the third
after the other two, as ``validate_model`` does.  On models
drawn under ``oracle_arithmetic`` it multiplies with the earlier per-pair
table, not the sparse rows.  ``oracle_special_pair``, shared with
``tests/test_special_oracle.py``, is the earlier ``verify_special_pair``,
which built lambda_t(x), lambda_t(y) and lambda_t(x*y) afresh for every
pair.

The current ``validate_model`` must agree on every check's verdict and
name the first offending case; ``verify_special_pair`` must give an equal
``Report``.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.lambdaring import RingElement, RingModel, validate_model, verify_special_pair
from gwgamma.models import BUILTINS
from test_arith_oracle import augmented_ring_models, oracle_ring_mul, ring_models, series_of
from test_filtration_oracle import CLI_BUILTINS
from test_series import binomial
from test_special_oracle import oracle_special_pair


def oracle_validate(m):
    """(check name, every offending case) in the earlier order."""
    basis = m.basis_elements()
    one = m.unit_element
    rank = m.group.rank
    out = []

    cases = [] if m.augmentation(m.unit) == 1 else ["d(1) = %d" % m.augmentation(m.unit)]
    out.append(("augmentation(unit) == 1", cases))
    out.append(("unit is multiplicatively neutral", ["" for b in basis if (one * b) != b]))

    cases = []
    for i in range(rank):
        for j in range(i, rank):
            for k in range(j, rank):
                left = (basis[i] * basis[j]) * basis[k]
                if left != basis[i] * (basis[j] * basis[k]):
                    cases.append("(b%d*b%d)*b%d != b%d*(b%d*b%d)" % (i, j, k, i, j, k))
                if i < j < k and left != basis[j] * (basis[i] * basis[k]):
                    cases.append("(b%d*b%d)*b%d != b%d*(b%d*b%d)" % (i, j, k, j, i, k))
    out.append(("multiplication associative on basis", cases))

    cases = []
    for i, o in enumerate(m.group.orders):
        if not o:
            continue
        if m.aug[i] != 0:
            cases.append("torsion basis element %d has nonzero rank" % i)
        for j in range(rank):
            if not (o * (basis[i] * basis[j])).is_zero:
                cases.append("order %d of b%d does not kill b%d*b%d" % (o, i, i, j))
    out.append(("products respect torsion orders", cases))

    cases = []
    for i in range(rank):
        for j in range(i, rank):
            lhs = m.augmentation((basis[i] * basis[j]).value)
            rhs = m.aug[i] * m.aug[j]
            if lhs != rhs:
                cases.append("d(b%d*b%d) = %d != %d" % (i, j, lhs, rhs))
    out.append(("augmentation is a ring homomorphism", cases))

    lam = m.lambda_on_basis
    cases = []
    for i in range(rank):
        first = lam[i][0] if lam[i] else m.group.zero()
        if first != m.group.basis_element(i):
            cases.append("lambda^1(b%d) != b%d" % (i, i))
    out.append(("lambda^1 is the identity on basis", cases))

    # every degree up to the truncation, the zero ones past the stored
    # degrees too: d(lambda^k b) = C(d(b), k) need not vanish there
    cases = []
    for i in range(rank):
        for kk in range(1, m.trunc + 1):
            coeff = lam[i][kk - 1] if kk <= len(lam[i]) else m.group.zero()
            want = binomial(m.aug[i], kk)
            got = m.augmentation(coeff)
            if got != want:
                cases.append("d(lambda^%d(b%d)) = %d != C(%d,%d)" % (kk, i, got, m.aug[i], kk))
    out.append(("augmentation compatible with lambda-series", cases))

    cases = []
    for i, o in enumerate(m.group.orders):
        if o and m.basis_lambda_series(i, m.trunc).pow(o) != series_of([one], m.trunc):
            cases.append("lambda_t(b%d)^%d != 1" % (i, o))
    out.append(("lambda-series respect torsion orders", cases))
    return out


@contextlib.contextmanager
def oracle_products(m):
    """The earlier ring-element product, for a model that carries its table."""
    saved = RingElement.__mul__
    if hasattr(m, "mul_table"):
        RingElement.__mul__ = oracle_ring_mul
    try:
        yield
    finally:
        RingElement.__mul__ = saved


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


ORACLE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_validation_matches_oracle(name, kwargs):
    assert assert_names_first_case(BUILTINS[name](**kwargs)).ok


def test_augmentation_past_stored_degrees_matches_oracle():
    # V*V = 2V, d(V) = 2 and lambda_t(V) = 1 + V t: the first case is
    # d(lambda^2 V) = 0 != C(2, 2), a degree past the stored one
    from test_lambdaring import square_two_ring

    report = assert_names_first_case(square_two_ring())
    assert report.first_failure.detail == "d(lambda^2(b1)) = 0 != C(2,2)"


@st.composite
def cut_series_models(draw):
    """``augmented_ring_models``, ranks -1..2, with each basis series cut
    after a drawn degree: the augmentation check then meets zero degrees
    past the stored ones, where C(d(b), k) need not vanish."""
    m = draw(augmented_ring_models())
    rank = m.group.rank
    mul = {}
    for i in range(rank):
        for j in range(i, rank):
            row = [0] * rank
            for k, c in m.products[i][j]:
                row[k] = c
            mul[(i, j)] = row
    lam = [[g.coeffs for g in s[:draw(st.integers(1, m.trunc))]] for s in m.lambda_on_basis]
    return RingModel("cut", m.group, m.unit.coeffs, mul, m.aug, lam, trunc=m.trunc)


@ORACLE_SETTINGS
@given(cut_series_models())
def test_cut_series_validation_matches_oracle(m):
    assert_names_first_case(m)


@ORACLE_SETTINGS
@given(ring_models(neutral_unit=False))
def test_drawn_model_validation_matches_oracle(m):
    assert_names_first_case(m)


@ORACLE_SETTINGS
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


@ORACLE_SETTINGS
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
