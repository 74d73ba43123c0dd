"""Differential test of the polynomial fold.

``MultiPoly.evaluate`` folds a polynomial at sparse entry lists with a
supplied product; ``lambdaring._evaluate`` makes that product one
``RingModel.dot`` and reduces the sum once, as the ``special`` checker and
``psi_k`` do.  It starts a fold from its first value, passes over factors
equal to the unit and drops a term once its prefix is zero.  The one
reference, ``oracle_evaluate`` below, is the earliest fold: every monomial
was the full left fold one * v * v * w * ..., with its prefixes memoized,
on values with their own arithmetic.  For a bilinear product whose unit is
neutral on both sides, associative or not, both must give equal values.
The drawn models below have such a unit: with a nilpotent basis element,
torsion factors and drawn structure constants that are in general not
associative.  Int and ``MultiPoly`` values are folded by
``MultiPoly.evaluate`` too.  ``test_fold_oracle`` compares the same fold
with this reference on models drawn as no ring at all, and ``psi_k`` with
it at the Newton polynomial.
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


def int_evaluate(poly, values):
    """``MultiPoly.evaluate`` over Z, an int c as the entry list [(0, c)]."""
    total = poly.evaluate([[(0, v)] if v else [] for v in values], [(0, 1)],
                          lambda a, b: [(0, a[0][1] * b[0][1])])
    return total.get(0, 0)


def multipoly_evaluate(poly, values, nvars):
    """``MultiPoly.evaluate`` over polynomials in nvars variables, each value
    as the entry list of its (exponents, coefficient) terms."""
    def times(a, b):
        return list((MultiPoly(nvars, dict(a)) * MultiPoly(nvars, dict(b))).terms.items())

    unit = list(MultiPoly.constant(nvars, 1).terms.items())
    return MultiPoly(nvars, poly.evaluate([list(v.terms.items()) for v in values], unit, times))


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


def value_kinds(m):
    """One value: zero, the unit, a multiple of b1 (nilpotent in
    ``neutral_unit_models``), a torsion element, the unit plus a multiple of
    b1 or plus a small element, or a small element; b0 stands in for b1 at
    rank one.  Built once per model: building a strategy costs more than
    drawing from it."""
    rank = m.group.rank
    nil = min(1, rank - 1)
    torsion = [i for i, o in enumerate(m.group.orders) if o] or [nil]

    def basis_multiple(i, c):
        return m.element([c * int(t == i) for t in range(rank)])

    small = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(m.element)
    return st.one_of(
        st.just(m.zero_element),
        st.just(m.unit_element),
        st.integers(-3, 3).map(lambda c: basis_multiple(nil, c)),
        st.builds(basis_multiple, st.sampled_from(torsion), st.integers(1, 3)),
        st.integers(-2, 2).map(lambda c: m.unit_element + basis_multiple(nil, c)),
        small.map(lambda v: m.unit_element + v),
        small,
    )


def draw_values(data, kinds, count):
    return data.draw(st.lists(kinds, min_size=count, max_size=count))


def fold(poly, values):
    """``_evaluate`` at the entries of ring elements, a coefficient tuple."""
    return _evaluate(values[0].model, poly, [_entries(v.value.coeffs) for v in values])


def reference(poly, values):
    return oracle_evaluate(poly, values, values[0].model.unit_element).value.coeffs


@SETTINGS
@given(st.data(), POLY, neutral_unit_models())
def test_ring_values_match_oracle(data, poly, m):
    values = draw_values(data, value_kinds(m), poly.nvars)
    assert fold(poly, values) == reference(poly, values)


@SETTINGS
@given(st.data(), POLY)
def test_int_values_match_oracle(data, poly):
    values = data.draw(st.lists(
        st.one_of(st.sampled_from([0, 1, -1]), st.integers(-9, 9)),
        min_size=poly.nvars, max_size=poly.nvars))
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
    assert multipoly_evaluate(poly, values, nvars) == oracle_evaluate(poly, values, one)


def test_empty_and_constant_polynomials():
    assert int_evaluate(MultiPoly(1), [1]) == 0
    assert int_evaluate(MultiPoly.constant(1, 5), [0]) == 5
    assert multipoly_evaluate(MultiPoly(1), [MultiPoly.constant(2, 1)], 2) == MultiPoly(2)
    assert multipoly_evaluate(MultiPoly.constant(1, 5), [MultiPoly(2)], 2) == \
        MultiPoly.constant(2, 5)
    with pytest.raises(ValueError):
        int_evaluate(MultiPoly(2), [1])
    with pytest.raises(ValueError):
        multipoly_evaluate(MultiPoly(2), [MultiPoly(2)], 2)


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
