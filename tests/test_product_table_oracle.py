"""Differential test of the filtration's products and pieces.

The reference is the earlier construction.  It built the span S_w of the
products of weight exactly w for every w up to the weight cap,
min(certified cap, truncation): each S_w one HNF of the gamma-values of
weight w and the products g * S_(w-i) of the lighter values g of weight i,
every product one ``RingElement`` product ``g * m.element(c)``, fed to
``subgroup_from_generators`` unchanged.  The pieces were the sums
F^kmax = S_kmax + ... + S_cap and F^k = F^(k+1) + S_k.  It lives here only
as an oracle and shares no product with the code it checks, whose pieces
come from one recursion over ``_times``; it reads the gamma-values off
``_gamma_values``.  Pieces, weight cap, ``exact`` and ``warnings`` must
match, on results that are not exact too, and each F^kmax must be closed
under the gamma-values.  ``_times`` itself is checked against ring-element
products on drawn spans, with its product lists shared by equal spans.

The inputs here are models drawn as in ``test_arith_oracle``, Z plus up
to three free or torsion factors with random structure constants, on the
draws of ``augmented_ring_models`` that the filtration accepts;
``test_per_weight_oracle`` runs the same oracle on every CLI builtin and
on four group rings.  Spans are HNFs
built with ``subgroup_from_generators``, so over a torsion factor of order
o their columns carry the unreduced relation vector o * e_i.
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


def oracle_spans(m, values):
    """S_1, S_2, ...: S_w spanned by the values of weight w and the products
    g * c of the lighter values g of weight i with the columns c of
    S_(w-i), one ring-element product each, fed to
    ``subgroup_from_generators`` unchanged.  A list that ``spans_to(w)``
    extends through S_w on demand: S_w depends on no kmax or cap."""
    spans = []

    def spans_to(cap):
        for w in range(len(spans) + 1, cap + 1):
            vecs = [g.value for i, g in values if i == w]
            vecs += [
                (g * m.element(c)).value
                for i, g in values if i < w
                for c in spans[w - i - 1].columns
            ]
            spans.append(subgroup_from_generators(m.group, vecs))
        return spans

    return spans_to


def oracle_pieces(m, spans, kmax, cap):
    """F^0..F^kmax from the spans of weight at most cap: F^kmax the sum of
    S_kmax..S_cap and F^k = F^(k+1) + S_k, each one HNF."""
    def total(subs):
        return subgroup_from_generators(
            m.group, [m.group.element(c) for s in subs for c in s.columns]
        )

    pieces = [total(spans[kmax - 1:cap])]
    for k in range(kmax - 1, 0, -1):
        pieces.append(total([pieces[-1], spans[k - 1]]))
    return (full_subgroup(m.group), *reversed(pieces))


def oracle_closed(m, piece, values):
    return all(
        piece.contains((g * m.element(c)).value)
        for _, g in values
        for c in piece.columns
    )


def oracle_values(m):
    """The gamma-values by weight, as (weight, ring element) pairs."""
    gens = [m.group.reduce(v) for v in kernel_basis(m.aug)]
    return [(i, m.element(g)) for i, gs in _gamma_values(m, gens, m.trunc).items() for g in gs]


def assert_matches_oracle(m, kmaxes):
    """Each ``gamma_filtration(m, kmax)`` has the oracle's pieces, weight cap,
    exact flag and warning: exact is the one truncation clause, the certified
    cap kmax + i_max - 1 within the truncation.  Closure under the
    gamma-values is no clause of the verdict: it holds, on truncated
    results too."""
    values = oracle_values(m)
    spans_to = oracle_spans(m, values)
    imax = max((i for i, _ in values), default=0)
    for kmax in kmaxes:
        certified = kmax + max(imax - 1, 0)
        cap = min(certified, m.trunc)
        warnings = ()
        if certified > m.trunc:
            warnings = ("certified cap %d exceeds truncation %d, pieces use products "
                        "up to weight %d" % (certified, m.trunc, m.trunc),)
        pieces = oracle_pieces(m, spans_to(cap), kmax, cap)
        f = gamma_filtration(m, kmax)
        assert (f.pieces, f.weight_cap, f.exact, f.warnings) == (
            pieces, cap, not warnings, warnings), (m.name, kmax)
        assert oracle_closed(m, f.pieces[kmax], values), (m.name, kmax)


@TABLE_SETTINGS
@given(augmented_ring_models(), st.integers(1, 5))
def test_filtration_matches_per_product_oracle(m, kmax):
    # the filtration refuses a model whose lambda-series do not respect a
    # torsion order, which augmented_ring_models may draw
    assume(next(dict(_checks(m))["lambda-series respect torsion orders"], None) is None)
    assert_matches_oracle(m, [kmax])
