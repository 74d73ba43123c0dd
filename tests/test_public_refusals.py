"""Each public refusal raises ValueError with its own message.

The calls below are refused before any work: mixed presentations or
models, malformed constructor data, out-of-range degrees, and degrees and
counts whose type is not ``int``, ``True`` and ``2.0`` included, which
would otherwise act as 1 and 2 or fail inside a slice.  The other
tests reach few of them, so each is called here once, and a refusal that
went missing, or raised something else, fails by name.
"""

import pytest

from gwgamma.abelian import (
    GroupPresentation,
    full_subgroup,
    quotient_presentation,
    relative_quotient_invariants,
    subgroup_from_generators,
)
from gwgamma.filtration import gamma_filtration
from gwgamma.lambdaring import (
    RingModel,
    gamma_k,
    lambda_k,
    lambda_total,
    psi_k,
    verify_special_pair,
)
from gwgamma.milnor import F2Poly, check_identities, omega
from gwgamma.models import (
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
)
from gwgamma.symfunc import MultiPoly, compose_universal, newton_psi, product_universal

Z = GroupPresentation((0,), ("a",))
Z2 = GroupPresentation((0, 0), ("a", "b"))


def ring(group=Z, unit=(1,), mul=None, aug=(1,), lam=((1,),)):
    """Z with b0 * b0 = b0 and lambda_t(b0) = 1 + b0 t, but for the data given."""
    mul = {(0, 0): (1,)} if mul is None else mul
    return RingModel("z", group, unit, mul, aug, [list(lam)] if lam else [])


def point_elements():
    return gw_point("C").unit_element, gw_point("R").unit_element


def unit_c():
    return gw_point("C").unit_element


CASES = {
    "presentation-lengths": (
        lambda: GroupPresentation((0, 0), ("a",)), "orders and names must have equal length"),
    "presentation-negative-order": (
        lambda: GroupPresentation((-1,), ("a",)), "orders must be non-negative"),
    "element-sum-across-presentations": (
        lambda: Z.element((1,)) + Z2.element((1, 0)),
        "elements belong to different presentations"),
    "element-difference-across-presentations": (
        lambda: Z.element((1,)) - Z2.element((1, 0)),
        "elements belong to different presentations"),
    "contains-across-presentations": (
        lambda: full_subgroup(Z).contains(Z2.element((1, 0))),
        "element from a different presentation"),
    "inclusion-across-presentations": (
        lambda: full_subgroup(Z) <= full_subgroup(Z2), "subgroups of different presentations"),
    "generators-across-presentations": (
        lambda: subgroup_from_generators(Z, [Z2.element((1, 0))]),
        "generator from a different presentation"),
    "relative-invariants-across-presentations": (
        lambda: relative_quotient_invariants(full_subgroup(Z), full_subgroup(Z2)),
        "subgroups of different presentations"),
    "quotient-across-presentations": (
        lambda: quotient_presentation(Z, full_subgroup(Z2)),
        "subgroup of a different presentation"),
    "model-augmentation-length": (
        lambda: ring(aug=(1, 0)), "augmentation vector of wrong length"),
    "model-product-index": (
        lambda: ring(mul={(0, 1): (1,)}), "product index out of range"),
    "model-conflicting-products": (
        lambda: ring(Z2, (1, 0), {(0, 1): (1, 0), (1, 0): (0, 1)}, (1, 0)),
        "conflicting products for basis pair (0, 1)"),
    "model-lambda-length": (
        lambda: ring(lam=()), "lambda-series list of wrong length"),
    "ring-sum-across-models": (
        lambda: point_elements()[0] + point_elements()[1], "elements from different models"),
    "ring-negative-power": (
        lambda: gw_point("C").unit_element ** -1, "negative ring power"),
    "adams-degree-zero": (
        lambda: psi_k(gw_point("C").unit_element, 0), "k must be positive"),
    "special-pair-across-models": (
        lambda: verify_special_pair(*point_elements()), "elements from different models"),
    "f2-no-variables": (
        lambda: F2Poly(0, 1), "need at least one variable and maxdeg >= 0"),
    "f2-negative-power": (
        lambda: F2Poly.one(1, 2) ** -1, "negative power; use inverse() first"),
    "poly-exponent-length": (
        lambda: MultiPoly(2, {(1,): 1}), "exponent vector of wrong length"),
    "newton-degree-zero": (lambda: newton_psi(0), "k must be positive"),
    "product-degree-zero": (lambda: product_universal(0), "n must be positive"),
    "compose-degree-zero": (lambda: compose_universal(0, 1), "m and n must be positive"),
    "gamma-kmax-bool": (
        lambda: gamma_filtration(gw_point("C"), True), "kmax True is not an integer"),
    "gamma-kmax-float": (
        lambda: gamma_filtration(gw_point("C"), 2.0), "kmax 2.0 is not an integer"),
    "adams-degree-bool": (lambda: psi_k(unit_c(), True), "k True is not an integer"),
    "adams-degree-float": (lambda: psi_k(unit_c(), 2.0), "k 2.0 is not an integer"),
    "lambda-degree-bool": (lambda: lambda_k(unit_c(), True), "k True is not an integer"),
    "lambda-degree-float-zero": (lambda: lambda_k(unit_c(), 0.0), "k 0.0 is not an integer"),
    "gamma-degree-bool": (lambda: gamma_k(unit_c(), True), "k True is not an integer"),
    "lambda-order-float": (lambda: lambda_total(unit_c(), 2.0), "order 2.0 is not an integer"),
    "special-bound-float": (
        lambda: verify_special_pair(unit_c(), unit_c(), 2.0), "bound 2.0 is not an integer"),
    "newton-degree-bool": (lambda: newton_psi(True), "k True is not an integer"),
    "newton-degree-float": (lambda: newton_psi(2.0), "k 2.0 is not an integer"),
    "product-degree-bool": (lambda: product_universal(True), "n True is not an integer"),
    "product-degree-float": (lambda: product_universal(2.0), "n 2.0 is not an integer"),
    # equal to a cached key: the refusal comes before the cache's answer
    "compose-degree-float-after-int": (
        lambda: (compose_universal(2, 1), compose_universal(2.0, 1)), "m 2.0 is not an integer"),
    "compose-count-bool": (lambda: compose_universal(1, True), "n True is not an integer"),
    "milnor-count-bool": (lambda: check_identities(True), "n True is not an integer"),
    "omega-count-float": (lambda: omega(2.0, 4), "n 2.0 is not an integer"),
    "projective-dimension-bool": (lambda: gw_projective("C", True), "r True is not an integer"),
    "projective-dimension-float": (lambda: gw_projective("C", 2.0), "r 2.0 is not an integer"),
    "surface-classes-bool": (lambda: gw_surface_cxp1(True), "s True is not an integer"),
    "punctured-a5-float": (lambda: gw_punctured_a5(3.0), "f 3.0 is not an integer"),
    "complex-punctured-line": (
        lambda: gw_punctured_line(base="C"), "only the real punctured line is shipped"),
}


@pytest.mark.parametrize("call,message", CASES.values(), ids=list(CASES))
def test_refusal_raises_its_message(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


def test_the_base_ring_is_accepted():
    # each model case above changes one field of this ring
    m = ring()
    assert m.products == ((((0, 1),),),) and m.aug == (1,)
