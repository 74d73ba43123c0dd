"""Differential test of the polynomial fold.

``oracle_evaluate`` below is the earliest fold: every monomial was the full
left fold one * v * v * w * ..., with its prefixes memoized.
``ring_evaluate`` is the fold with skips, on values with their own
arithmetic: it starts a fold from its first value, passes over factors
equal to the unit and drops a term once its prefix is zero.  It is the
ring-element form of ``MultiPoly.evaluate``, which folds the same way on
sparse entry lists with a supplied product.  For a bilinear product whose
unit is neutral on both sides, associative or not, all must give equal
values; the drawn models below have such a unit, a nilpotent basis element
and torsion factors, and drawn structure constants that are in general not
associative.  Int and ``MultiPoly`` values are checked too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma import cli
from gwgamma.abelian import GroupPresentation, _entries
from gwgamma.lambdaring import RingElement, RingModel, _evaluate
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


def ring_evaluate(poly, values, one):
    """The fold of ``MultiPoly.evaluate`` on values with their own
    arithmetic (ring elements, ints, ``MultiPoly``); `one` is the unit."""
    if len(values) != poly.nvars:
        raise ValueError("wrong number of values")
    zero = one * 0
    is_one = [v == one for v in values]
    is_zero = [v == zero for v in values]
    # prefixes[key]: the fold of the values indexed by key, None if zero
    prefixes = {}
    acc = None
    for exps, c in poly.terms.items():
        term, key = one, ()
        for i in [i for i, e in enumerate(exps) for _ in range(e)]:
            key += (i,)
            if key not in prefixes:
                if is_zero[i]:
                    value = None
                elif len(key) == 1:
                    value = values[i]
                elif is_one[i]:
                    value = term
                else:
                    value = term * values[i]
                    if value == zero:
                        value = None
                prefixes[key] = value
            term = prefixes[key]
            if term is None:
                break
        else:
            term = term * c
            acc = term if acc is None else acc + term
    return acc if acc is not None else zero


def int_evaluate(poly, values):
    """``MultiPoly.evaluate`` over Z, an int c as the entry list [(0, c)]."""
    total = poly.evaluate([[(0, v)] if v else [] for v in values], [(0, 1)],
                          lambda a, b: [(0, a[0][1] * b[0][1])])
    return total.get(0, 0)


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
    got = ring_evaluate(poly, values, m.unit_element)
    assert isinstance(got, RingElement)
    assert got == oracle_evaluate(poly, values, m.unit_element)
    entries = [_entries(v.value.coeffs) for v in values]
    assert _evaluate(m, poly, entries) == got.value.coeffs


@SETTINGS
@given(st.data(), POLY)
def test_int_values_match_oracle(data, poly):
    values = data.draw(st.lists(
        st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9)),
        min_size=poly.nvars, max_size=poly.nvars))
    assert ring_evaluate(poly, values, 1) == oracle_evaluate(poly, values, 1)
    assert int_evaluate(poly, values) == oracle_evaluate(poly, values, 1)


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
    got = ring_evaluate(poly, values, one)
    assert isinstance(got, MultiPoly)
    assert got == oracle_evaluate(poly, values, one)


def test_empty_and_constant_polynomials():
    for one, zero in ((1, 0), (MultiPoly.constant(2, 1), MultiPoly(2))):
        assert ring_evaluate(MultiPoly(1), [one], one) == zero
        assert ring_evaluate(MultiPoly.constant(1, 5), [zero], one) == one * 5
    with pytest.raises(ValueError):
        ring_evaluate(MultiPoly(2), [1], 1)
    assert int_evaluate(MultiPoly(1), [1]) == 0
    assert int_evaluate(MultiPoly.constant(1, 5), [0]) == 5
    with pytest.raises(ValueError):
        int_evaluate(MultiPoly(2), [1])


def test_prefix_keys_built_once():
    # the prefix keys of each term are built at the first evaluation and
    # read, not rebuilt, by every later one
    poly = MultiPoly(3, {(2, 1, 0): 3, (2, 0, 1): -1, (0, 0, 0): 2})
    assert poly._chains is None
    assert int_evaluate(poly, [2, 5, 7]) == 3 * 4 * 5 - 4 * 7 + 2
    chains = poly._chains
    assert sorted(keys for _, keys in chains) == [
        [], [(0,), (0, 0), (0, 0, 1)], [(0,), (0, 0), (0, 0, 2)]]
    assert int_evaluate(poly, [1, 0, -1]) == 0 + 1 + 2
    assert poly._chains is chains
    # the universal polynomials are memoized, so their keys serve every run
    p2 = product_universal(2)
    assert cli.run(["special", "builtin:gw_point", "--base", "R"]) == 0
    chains = p2._chains
    assert chains is not None
    assert cli.run(["special", "builtin:gw_point", "--base", "C"]) == 0
    assert p2._chains is chains


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
    # product in ``MultiPoly.evaluate``; both are counted
    assert len(SMALL_BUILTINS) == 25
    products = []
    real_mul = RingElement.__mul__

    def mul(self, other):
        if isinstance(other, RingElement):
            products.append(1)
        return real_mul(self, other)

    folding = []
    real_fold = MultiPoly.evaluate

    def fold(*args):
        folding.append(1)
        try:
            return real_fold(*args)
        finally:
            folding.pop()

    real_dot = RingModel.dot

    def dot(self, xs, ys):
        if folding:
            products.append(1)
        return real_dot(self, xs, ys)

    monkeypatch.setattr(RingElement, "__mul__", mul)
    monkeypatch.setattr(MultiPoly, "evaluate", fold)
    monkeypatch.setattr(RingModel, "dot", dot)
    for name, flags in SMALL_BUILTINS:
        assert cli.run(["special", "builtin:" + name, *flags, "--bound", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    assert 0 < len(products) <= 3500
