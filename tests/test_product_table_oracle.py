"""Differential test of the filtration's products and pieces.

The reference, ``assert_pieces_match_oracle`` of ``tests/reference.py``, is
the earlier construction.  It built the span S_w of the products of weight
exactly w for every w up to the weight cap, min(certified cap,
truncation): each S_w one HNF of the gamma-values of weight w and the
products g * S_(w-i) of the lighter values g of weight i, every product one
``RingElement`` product ``g * m.element(c)``, fed to
``subgroup_from_generators`` unchanged.  The pieces were the sums
F^kmax = S_kmax + ... + S_cap and F^k = F^(k+1) + S_k.  It lives only as
an oracle and shares no product with the code it checks, whose pieces
come from one recursion over ``_times``; it reads the gamma-values off
``_gamma_values``.  Pieces, weight cap, ``exact`` and ``warnings`` must
match, on results that are not exact too, and each F^kmax must be closed
under the gamma-values.  ``_times`` itself is checked against ring-element
products on drawn spans, with its product lists shared by equal spans.

The inputs here are the drawn models of ``tests/reference.py``, Z plus up
to three free or torsion factors with random structure constants, on the
draws of ``augmented_ring_models`` that the filtration accepts;
``test_per_weight_oracle`` runs the same oracle on every CLI builtin and
on four group rings.  Spans are HNFs
built with ``subgroup_from_generators``, so over a torsion factor of order
o their columns carry the unreduced relation vector o * e_i.
"""

from hypothesis import assume, given, strategies as st

from gwgamma.abelian import subgroup_from_generators
from gwgamma.filtration import _times
from gwgamma.lambdaring import _checks
from reference import ORACLE_SETTINGS, augmented_ring_models, ring_models
# under the name the drawn test below is seeded with: a derandomized
# hypothesis test draws from a seed of its own source
from reference import assert_pieces_match_oracle as assert_matches_oracle


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


@ORACLE_SETTINGS
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


@ORACLE_SETTINGS
@given(augmented_ring_models(), st.integers(1, 5))
def test_filtration_matches_per_product_oracle(m, kmax):
    # the filtration refuses a model whose lambda-series do not respect a
    # torsion order, which augmented_ring_models may draw
    assume(next(dict(_checks(m))["lambda-series respect torsion orders"], None) is None)
    assert_matches_oracle(m, [kmax])
