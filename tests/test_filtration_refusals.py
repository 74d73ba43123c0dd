"""Models the gamma filtration refuses.

Each piece F^k is built from the lower ones, as the span of the gamma-values
of weight >= k and the products g * F^(k-i) of the values g of weight
i < k.  That needs F^1 to be the augmentation kernel, closed under
multiplication and spanned by the values of weight one, and products that
do not depend on representatives.  A model whose augmentation is not
multiplicative on the basis, one whose torsion does not kill its products,
one with a gamma-value of nonzero rank, or one whose lambda-series do not
respect a torsion order was once filtered all the same, and could come out
flagged exact with pieces that are not the gamma filtration.  These, a
model whose lambda^1 is not the identity on the basis, one with a
torsion basis element of nonzero rank and one whose unit has rank other
than 1 now raise ``ValueError`` from ``gamma_filtration``, so also on the
way to ``witt_filtration``, which takes a gamma filtration of the model.

The refusals are the checks of ``validate_model``'s report and nothing
else: the filtration raises "<check>: <case>" on the first offending case
of the checks named in ``filtration._REFUSALS``, in that order, so the two
cannot name different cases.  A gamma-value of nonzero rank is refused as
"augmentation compatible with lambda-series": once d(lambda^k(b)) =
C(d(b), k) and d(1) = 1, every gamma-value has rank zero (the argument is
in the ``filtration`` docstring).  Of the checks it does not name, a model
the filtration returns fails at most associativity.
"""

import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from gwgamma.abelian import GroupPresentation
from gwgamma.filtration import _REFUSALS, gamma_filtration, witt_filtration
from gwgamma.lambdaring import RingModel, _checks, validate_model
from gwgamma.models import BUILTINS
from test_arith_oracle import augmented_ring_models, ring_models
from test_filtration_oracle import CLI_BUILTINS


def first_failure(m):
    """The first basis pair i <= j with d(b_i b_j) != d(b_i) d(b_j), as the
    message names it, from ring-element products."""
    basis, d = m.basis_elements(), m.augmentation
    for i, a in enumerate(basis):
        for j in range(i, len(basis)):
            got, want = d((a * basis[j]).value), d(a.value) * d(basis[j].value)
            if got != want:
                return "d(b%d*b%d) = %d != %d" % (i, j, got, want)
    return None


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ring_models(neutral_unit=True), st.integers(1, 3))
def test_non_multiplicative_augmentation_is_refused(m, kmax):
    case = first_failure(m)
    assume(case is not None)
    with pytest.raises(ValueError, match=re.escape(case)):
        gamma_filtration(m, kmax=kmax)
    # the refusal comes first, whether or not m declares hyperbolic classes
    with pytest.raises(ValueError, match=re.escape(case)):
        witt_filtration(m, gamma_filtration(m, kmax=kmax))


def zero_augmentation_ring():
    """Z[C2] on the basis (1, g) with d(g) = 0: d(g*g) = d(1) = 1."""
    group = GroupPresentation((0, 0), ("one", "g"))
    return RingModel("Z[C2], d(g) = 0", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)},
                     (1, 0), [[(1, 0)], [(0, 1)]], hyperbolic=())


def nonzero_rank_ring():
    """Basis (1, x), x^2 = x, d(x) = 0 and lambda_t(x) = 1 + x t + t^2."""
    group = GroupPresentation((0, 0), ("one", "x"))
    return RingModel("x^2 = x", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)},
                     (1, 0), [[(1, 0)], [(0, 1), (1, 0)]], hyperbolic=(), trunc=6)


def unkilled_torsion_ring():
    """Basis (1, y, x), 1 and y free, x of order 2, x*x = y, ranks (1, 0, 0),
    gamma_t(y) = 1 + y t and gamma_t(x) = 1 + x t."""
    group = GroupPresentation((0, 0, 2), ("one", "y", "x"))
    lam = [[(1, 0, 0)]] + [
        [tuple((-1) ** k * c for c in b) for k in range(6)]
        for b in ((0, 1, 0), (0, 0, 1))
    ]
    return RingModel("x*x = y, 2x = 0", group, (1, 0, 0),
                     {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
                      (2, 2): (0, 1, 0)},
                     (1, 0, 0), lam, hyperbolic=(), trunc=6)


def test_group_ring_with_zero_augmentation_is_refused():
    # the homomorphism check is the only one validate_model fails.
    # g = gamma^1(g) and g*g = 1 put the unit into F^1, which was flagged
    # exact at kmax 1 with F^1 = Z^2, although the kernel is Zg
    m = zero_augmentation_ring()
    assert [c.name for c in validate_model(m).checks if not c.ok] == [
        "augmentation is a ring homomorphism"]
    for kmax in (1, 2):
        with pytest.raises(ValueError, match=re.escape("d(b1*b1) = 1 != 0")):
            gamma_filtration(m, kmax=kmax)
        with pytest.raises(ValueError, match=re.escape("d(b1*b1) = 1 != 0")):
            witt_filtration(m, gamma_filtration(m, kmax=kmax))


def test_gamma_value_of_nonzero_rank_is_refused():
    # lambda^2(x) = 1 has rank 1, so gamma^2(x) = 1 + x does too, and the
    # span of the gamma-values, Z^2, is not the kernel Zx.  It was flagged
    # exact at kmax 1 with F^1 = Z^2
    m = nonzero_rank_ring()
    assert [c.name for c in validate_model(m).checks if not c.ok] == [
        "augmentation compatible with lambda-series"]
    message = re.escape(
        "augmentation compatible with lambda-series: d(lambda^2(b1)) = 1 != C(0,2)")
    with pytest.raises(ValueError, match=message):
        gamma_filtration(m, kmax=1)
    with pytest.raises(ValueError, match=message):
        witt_filtration(m, gamma_filtration(m, kmax=1))


def test_torsion_that_does_not_kill_its_products_is_refused():
    # lambda_t(b) = 1 + b t - b t^2 + b t^3 - ... for b = y, x.  2x = 0 but
    # (2x)*x = 2y is not, so x*x depends on the representative of x, and g
    # times a combination of columns need not be that combination of
    # products.  It was flagged exact at kmax 1..4
    m = unkilled_torsion_ring()
    message = re.escape("order 2 of b2 does not kill b2*b2")
    for kmax in range(1, 5):
        with pytest.raises(ValueError, match=message):
            gamma_filtration(m, kmax=kmax)
        with pytest.raises(ValueError, match=message):
            witt_filtration(m, gamma_filtration(m, kmax=kmax))


def dot_torsion_products(m):
    """The earlier check: (o_i b_i) * b_j as one ``dot``, zero when b_i * b_j
    is."""
    rank = m.group.rank
    for i, o in enumerate(m.group.orders):
        if not o:
            continue
        if m.aug[i]:
            yield "torsion basis element %d has nonzero rank" % i
        for j in range(rank):
            if m.products[i][j] and any(m.dot(((i, o),), ((j, 1),))):
                yield "order %d of b%d does not kill b%d*b%d" % (o, i, i, j)


def assert_torsion_products_match_dot(m):
    got = dict(_checks(m))["products respect torsion orders"]
    assert list(got) == list(dot_torsion_products(m))


@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_torsion_products_match_dot(name, kwargs):
    assert_torsion_products_match_dot(BUILTINS[name](**kwargs))


def test_torsion_products_of_an_unkilled_ring_match_dot():
    m = unkilled_torsion_ring()
    assert next(dot_torsion_products(m)) == "order 2 of b2 does not kill b2*b2"
    assert_torsion_products_match_dot(m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(ring_models(neutral_unit=False), ring_models(neutral_unit=True),
                 augmented_ring_models()))
def test_drawn_torsion_products_match_dot(m):
    assert_torsion_products_match_dot(m)


def lambda_one_ring():
    """Basis (1, x), x^2 = x, d(x) = 0 and lambda_t(x) = 1 + x t^2."""
    group = GroupPresentation((0, 0), ("one", "x"))
    return RingModel("lambda^1(x) = 0", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)},
                     (1, 0), [[(1, 0)], [(0, 0), (0, 1)]], hyperbolic=(), trunc=6)


def torsion_rank_ring():
    """Basis (1, t), t of order 2, t*t = t, ranks (1, 1), lambda_t(t) = 1 + t T."""
    group = GroupPresentation((0, 2), ("one", "t"))
    return RingModel("d(t) = 1, 2t = 0", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)},
                     (1, 1), [[(1, 0)], [(0, 1)]], hyperbolic=(), trunc=6)


def test_lambda_one_that_is_not_the_identity_is_refused():
    # lambda_t(x) = 1 + x t^2: lambda^1(x) = 0, so there is no value of
    # weight one, and F^1, the span of the values x, 2x, 3x, ..., is not
    # spanned by values of weight one, which leaving out the products of
    # the heavier values with F^1 needs
    m = lambda_one_ring()
    assert [c.name for c in validate_model(m).checks if not c.ok] == [
        "lambda^1 is the identity on basis"]
    message = re.escape("lambda^1 is the identity on basis: lambda^1(b1) != b1")
    for kmax in (1, 2):
        with pytest.raises(ValueError, match=message):
            gamma_filtration(m, kmax=kmax)
        with pytest.raises(ValueError, match=message):
            witt_filtration(m, gamma_filtration(m, kmax=kmax))


def test_torsion_basis_element_of_nonzero_rank_is_refused():
    # 2t = 0 but d(2t) = 2, so the rank is no map on the group and its
    # "kernel" is no subgroup.  It was flagged exact at kmax 1..3 with
    # F^1 spanned by (1, 1) and (0, 2), of rank 2 and 0
    m = torsion_rank_ring()
    case = "products respect torsion orders: torsion basis element 1 has nonzero rank"
    first = validate_model(m).first_failure
    assert "%s: %s" % (first.name, first.detail) == case
    for _ in range(2):
        for kmax in range(1, 7):
            with pytest.raises(ValueError, match=re.escape(case)):
                gamma_filtration(m, kmax=kmax)
            with pytest.raises(ValueError, match=re.escape(case)):
                witt_filtration(m, gamma_filtration(m, kmax=kmax))


def torsion_series_ring():
    """Basis (1, y, x), x of order 2, only the products 1 * b = b, ranks
    (1, 0, 0), gamma_t(y) = 1 + y t and gamma_t(x) = 1 + x t + y t^2, so
    lambda_t(y) = 1 + y t/(1+t) and lambda_t(x) = 1 + x t/(1+t) +
    y t^2/(1+t)^2."""
    group = GroupPresentation((0, 0, 2), ("one", "y", "x"))
    lam = [[(1, 0, 0)],
           [(0, (-1) ** (k - 1), 0) for k in range(1, 9)],
           [(0, (-1) ** k * (k - 1), (-1) ** (k - 1)) for k in range(1, 9)]]
    return RingModel("lambda_t(x)^2 != 1, 2x = 0", group, (1, 0, 0),
                     {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1)},
                     (1, 0, 0), lam, hyperbolic=(), trunc=8)


def test_lambda_series_that_do_not_respect_torsion_are_refused():
    # x and 3x are one element, yet lambda_t(x)^2 != 1, so lambda_t(3x) !=
    # lambda_t(x) and the gamma-values depend on the representative.  It was
    # flagged exact at kmax 1..4 with gr^1 = Z/2, gr^2 = Z and gr^3 = 0
    m = torsion_series_ring()
    assert [c.name for c in validate_model(m).checks if not c.ok] == [
        "lambda-series respect torsion orders"]
    message = "lambda-series respect torsion orders: lambda_t(b2)^2 != 1"
    for kmax in range(1, 5):
        with pytest.raises(ValueError) as raised:
            gamma_filtration(m, kmax=kmax)
        assert str(raised.value) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            witt_filtration(m, gamma_filtration(m, kmax=kmax))


def test_refusals_are_checks_of_validate_model():
    names = [c.name for c in validate_model(zero_augmentation_ring()).checks]
    assert len(set(_REFUSALS)) == len(_REFUSALS)
    assert set(_REFUSALS) <= set(names)


@pytest.mark.parametrize("build", [
    zero_augmentation_ring, unkilled_torsion_ring, lambda_one_ring, torsion_rank_ring,
    torsion_series_ring,
])
def test_refusal_names_the_first_failing_refused_check(build):
    m = build()
    failed = {c.name: c.detail for c in validate_model(m).checks if not c.ok}
    name = next(name for name in _REFUSALS if name in failed)
    with pytest.raises(ValueError) as raised:
        gamma_filtration(m, kmax=1)
    assert str(raised.value) == "%s: %s" % (name, failed[name])


def zero_unit_rank_ring():
    """Z on the basis (1,) with d = 0 and lambda_t(1) = 1 + t: every check
    but d(1) = 1 passes, so F^1 = Z would be the whole ring."""
    group = GroupPresentation((0,), ("one",))
    return RingModel("d(1) = 0", group, (1,), {(0, 0): (1,)}, (0,), [[(1,)]],
                     hyperbolic=())


def test_unit_of_rank_other_than_one_is_refused():
    # it was returned at kmax 1..3 with F^1 = F^0 = Z
    m = zero_unit_rank_ring()
    assert [c.name for c in validate_model(m).checks if not c.ok] == [
        "augmentation(unit) == 1"]
    message = "augmentation(unit) == 1: d(1) = 0"
    for kmax in range(1, 4):
        with pytest.raises(ValueError) as raised:
            gamma_filtration(m, kmax=kmax)
        assert str(raised.value) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            witt_filtration(m, gamma_filtration(m, kmax=kmax))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(ring_models(neutral_unit=False), ring_models(neutral_unit=True),
                 augmented_ring_models()), st.integers(1, 3))
def test_a_returned_filtration_fails_at_most_associativity(m, kmax):
    # each other check fails on a drawn model only with a ValueError
    try:
        gamma_filtration(m, kmax=kmax)
    except ValueError:
        return
    failed = {c.name for c in validate_model(m).checks if not c.ok}
    assert failed <= {"multiplication associative on basis"}
