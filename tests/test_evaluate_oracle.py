"""Differential test of ``MultiPoly.evaluate``.

The reference below is the earlier ``evaluate``: every monomial was the
full left fold one * v * v * w * ..., with its prefixes memoized.  The
current one starts a fold from its first value, passes over factors equal
to the unit and drops a term once its prefix is zero.  For a bilinear
product whose unit is neutral on both sides, associative or not, both must
give equal values; the drawn models below have such a unit, a nilpotent
basis element and torsion factors, and drawn structure constants that are
in general not associative.  Int and ``MultiPoly`` values are checked too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma import cli, lambdaring
from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import RingElement, RingModel
from gwgamma.symfunc import MultiPoly, compose_universal, newton_psi, product_universal


def oracle_evaluate(poly, values, one):
    if len(values) != poly.nvars:
        raise ValueError("wrong number of values")
    prefixes = {}
    acc = None
    for exps, c in poly.terms.items():
        term, key = one, ()
        for i, e in enumerate(exps):
            for _ in range(e):
                key += (i,)
                if key not in prefixes:
                    prefixes[key] = term * values[i]
                term = prefixes[key]
        term = term * c
        acc = term if acc is None else acc + term
    return acc if acc is not None else one * 0


POLYS = (
    [product_universal(n) for n in (1, 2, 3)]
    + [compose_universal(m, n) for m, n in ((1, 1), (2, 1), (2, 2), (2, 3), (3, 2))]
    + [newton_psi(k) for k in (1, 2, 3, 4, 5, 6)]
)
POLY = st.sampled_from(POLYS)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def neutral_unit_models(draw):
    """b0 the unit, b1 with b1*b1 = 0, then up to three free or torsion
    factors; the products of all other basis pairs are drawn (absent pairs
    are zero)."""
    orders = (0, 0) + tuple(draw(st.lists(st.sampled_from([0, 2, 3, 4]), max_size=3)))
    rank = len(orders)
    vec = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(tuple)

    def e(j):
        return tuple(int(t == j) for t in range(rank))

    mul = {(0, j): e(j) for j in range(rank)}
    for i in range(1, rank):
        for j in range(i, rank):
            if (i, j) != (1, 1) and draw(st.booleans()):
                mul[(i, j)] = draw(vec)
    group = GroupPresentation(orders, tuple("b%d" % i for i in range(rank)))
    lam = [[e(i)] for i in range(rank)]
    return RingModel("drawn", group, e(0), mul, (1,) + (0,) * (rank - 1), lam, trunc=6)


@st.composite
def ring_values(draw, m, count):
    """Zero, the unit, nilpotent multiples of b1, torsion elements, unit plus
    a nilpotent, and small elements, in drawn order."""
    rank = m.group.rank
    torsion = [i for i, o in enumerate(m.group.orders) if o] or [1]

    def basis_multiple(i, c):
        return m.element([c * int(t == i) for t in range(rank)])

    kinds = st.one_of(
        st.just(m.zero_element),
        st.just(m.unit_element),
        st.integers(-3, 3).map(lambda c: basis_multiple(1, c)),
        st.builds(basis_multiple, st.sampled_from(torsion), st.integers(1, 3)),
        st.integers(-2, 2).map(lambda c: m.unit_element + basis_multiple(1, c)),
        st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(m.element),
    )
    return draw(st.lists(kinds, min_size=count, max_size=count))


@SETTINGS
@given(st.data(), POLY, neutral_unit_models())
def test_ring_values_match_oracle(data, poly, m):
    values = data.draw(ring_values(m, poly.nvars))
    got = poly.evaluate(values, m.unit_element)
    assert isinstance(got, RingElement)
    assert got == oracle_evaluate(poly, values, m.unit_element)


@SETTINGS
@given(st.data(), POLY)
def test_int_values_match_oracle(data, poly):
    values = data.draw(st.lists(
        st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9)),
        min_size=poly.nvars, max_size=poly.nvars))
    assert poly.evaluate(values, 1) == oracle_evaluate(poly, values, 1)


def small_polys(nvars):
    exps = st.lists(st.integers(0, 2), min_size=nvars, max_size=nvars).map(tuple)
    return st.one_of(
        st.just(MultiPoly(nvars)),
        st.just(MultiPoly.constant(nvars, 1)),
        st.integers(0, nvars - 1).map(lambda i: MultiPoly.variable(nvars, i)),
        st.dictionaries(exps, st.integers(-2, 2), max_size=3).map(
            lambda terms: MultiPoly(nvars, terms)),
    )


@SETTINGS
@given(st.data(), POLY, st.integers(1, 3))
def test_multipoly_values_match_oracle(data, poly, nvars):
    values = data.draw(st.lists(small_polys(nvars), min_size=poly.nvars, max_size=poly.nvars))
    one = MultiPoly.constant(nvars, 1)
    got = poly.evaluate(values, one)
    assert isinstance(got, MultiPoly)
    assert got == oracle_evaluate(poly, values, one)


def test_empty_and_constant_polynomials():
    for one, zero in ((1, 0), (MultiPoly.constant(2, 1), MultiPoly(2))):
        assert MultiPoly(1).evaluate([one], one) == zero
        assert MultiPoly.constant(1, 5).evaluate([zero], one) == one * 5
    with pytest.raises(ValueError):
        MultiPoly(2).evaluate([1], 1)


# the model-files builtins without the two points: (constructor, CLI flags)
SMALL_BUILTINS = (
    [("gw_projective", ("--base", b, "--r", str(r))) for b in "CR" for r in range(1, 8)]
    + [("gw_surface_cxp1", ("--s", str(s))) for s in range(5)]
    + [("gw_punctured_line", ())]
    + [("gw_punctured_a5", ("--f", str(f))) for f in range(2, 7)]
)


def test_special_work_bound(monkeypatch, capsys):
    # 9,884 ring products with the full folds; the unit and zero skips
    # leave fewer than 3,500.  The checker multiplies x*y as ring elements
    # and folds the universal polynomials with one ``RingModel.dot`` per
    # product in ``lambdaring._fold``; both are counted
    assert len(SMALL_BUILTINS) == 25
    products = []
    real_mul = RingElement.__mul__

    def mul(self, other):
        if isinstance(other, RingElement):
            products.append(1)
        return real_mul(self, other)

    folding = []
    real_fold = lambdaring._fold

    def fold(*args):
        folding.append(1)
        try:
            return real_fold(*args)
        finally:
            folding.pop()

    real_dot = RingModel.dot

    def dot(self, pairs):
        if folding:
            products.append(1)
        return real_dot(self, pairs)

    monkeypatch.setattr(RingElement, "__mul__", mul)
    monkeypatch.setattr(lambdaring, "_fold", fold)
    monkeypatch.setattr(RingModel, "dot", dot)
    for name, flags in SMALL_BUILTINS:
        assert cli.run(["special", "builtin:" + name, *flags, "--bound", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    assert 0 < len(products) <= 3500
