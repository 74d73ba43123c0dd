"""Differential test of the filtration's products.

The reference is the earlier inner loop: it multiplied every gamma-value by
every column of every earlier span as ``RingElement`` products, one
``g * m.element(c)`` per pair, and fed each span's products to
``subgroup_from_generators`` unchanged.  It lives here only as an oracle.
``_times`` and ``_gamma_values`` work on coefficient tuples; the tests wrap
and unwrap them at the call, and every comparison is on the oracle's terms.

Models are drawn as in ``test_arith_oracle``: Z plus up to three free or
torsion factors with random structure constants; the filtration is compared
on the draws of ``augmented_ring_models`` that it accepts, and checked there
to be closed under the gamma-values.  Spans are HNFs built with
``subgroup_from_generators``, so over a torsion factor of order o their
columns carry the unreduced relation vector o * e_i.
"""

from hypothesis import assume, given, settings, strategies as st

from gwgamma.abelian import full_subgroup, kernel_basis, subgroup_from_generators
from gwgamma.filtration import _gamma_values, _times, gamma_filtration
from gwgamma.lambdaring import _checks
from test_arith_oracle import augmented_ring_models, ring_models

TABLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def table_cases(draw):
    """A drawn model, weighted values (repeats included) and spans."""
    m = draw(ring_models(neutral_unit=False))
    vec = st.lists(st.integers(-9, 9), min_size=m.group.rank, max_size=m.group.rank)
    elements = [m.element(v) for v in draw(st.lists(vec, min_size=1, max_size=4))]
    values = [
        (draw(st.integers(1, 4)), draw(st.sampled_from(elements)))
        for _ in range(draw(st.integers(1, 6)))
    ]
    spans = [
        subgroup_from_generators(m.group, [m.group.element(v) for v in vs])
        for vs in draw(st.lists(st.lists(vec, max_size=3), min_size=1, max_size=3))
    ]
    return m, values, spans


@TABLE_SETTINGS
@given(table_cases())
def test_table_products_match_multiply(case):
    m, values, spans = case
    # _times takes each value as its coefficient tuple, grouped by weight as
    # _gamma_values groups them; a value may repeat across weights
    by_weight = {}
    for i, g in values:
        by_weight.setdefault(i, {})[g.value.coeffs] = None
    distinct = list(dict.fromkeys(g.value.coeffs for _, g in values))
    products = {}
    zero = m.group.zero().coeffs
    for sub in spans:
        lists = {}
        for g in distinct:
            expected = {
                (m.element(g) * m.element(c)).value.coeffs
                for c in sub.columns
            } - {zero}
            got = _times(m, products, [g], sub)
            assert len(got) == len(set(got))
            assert set(got) == expected
            lists[g] = got
        # an equal span built anew reads the product lists of the first
        twin = subgroup_from_generators(
            m.group, [m.group.element(list(c)) for c in sub.columns]
        )
        for gs in by_weight.values():
            want = [p for g in gs for p in lists[g]]
            assert _times(m, products, list(gs), sub) == want
            assert _times(m, products, list(gs), twin) == want
        # one product list per distinct value and span
        assert list(products[sub.columns][1]) == distinct
    assert len(products) == len({sub.columns for sub in spans})


def oracle_pieces(m, values, kmax, cap):
    spans = []
    for w in range(1, cap + 1):
        vecs = [g.value for i, g in values if i == w]
        vecs += [
            (g * m.element(c)).value
            for i, g in values if i < w
            for c in spans[w - i - 1].columns
        ]
        spans.append(subgroup_from_generators(m.group, vecs))

    def total(subs):
        return subgroup_from_generators(
            m.group, [m.group.element(c) for s in subs for c in s.columns]
        )

    pieces = [total(spans[kmax - 1:])]
    for k in range(kmax - 1, 0, -1):
        pieces.append(total([pieces[-1], spans[k - 1]]))
    return (full_subgroup(m.group), *reversed(pieces))


def oracle_closed(m, piece, values):
    return all(
        piece.contains((g * m.element(c)).value)
        for _, g in values
        for c in piece.columns
    )


@TABLE_SETTINGS
@given(augmented_ring_models(), st.integers(1, 5))
def test_filtration_matches_per_product_oracle(m, kmax):
    # the filtration refuses a model whose lambda-series do not respect a
    # torsion order, which augmented_ring_models may draw
    assume(next(dict(_checks(m))["lambda-series respect torsion orders"], None) is None)
    # the oracle multiplies ring elements; the gamma-values are tuples
    gens = [m.group.reduce(v) for v in kernel_basis(m.aug)]
    values = [(i, m.element(g)) for i, gs in _gamma_values(m, gens, m.trunc).items() for g in gs]
    f = gamma_filtration(m, kmax=kmax)
    assert f.pieces == oracle_pieces(m, values, kmax, f.weight_cap)
    # exact is the one truncation clause; closure holds by construction,
    # on truncated results too
    imax = max((i for i, _ in values), default=0)
    assert f.exact == (kmax + max(imax - 1, 0) <= m.trunc)
    assert oracle_closed(m, f.pieces[kmax], values)
