"""Differential test of the piece recursion against the per-weight spans.

The reference is the earlier construction.  It built the span S_w of the
products of weight exactly w for every w up to the weight cap,
min(certified cap, truncation), each S_w one HNF of the gamma-values of
weight w and the products g * S_(w-i) of the lighter values g of weight i.
The pieces were the sums F^kmax = S_kmax + ... + S_cap and
F^k = F^(k+1) + S_k, one more HNF each: cap + kmax HNFs where the recursion
runs kmax.  It lives here only as an oracle, on the same products and
with the same verdict rule, the truncation clause, so pieces, ``exact`` and
``warnings`` must match, on results that are not exact too: at trunc 2, 4
and 8 the certified cap lies beyond the truncation on 252 of the 718
results, most of them projective spaces.  The oracle's F^kmax is checked
closed under the gamma-values on every result, by ring-element products.
"""

import pytest

from gwgamma.abelian import _span, full_subgroup, kernel_basis
from gwgamma.filtration import _gamma_values, _times, gamma_filtration
from gwgamma.models import BUILTINS
from test_filtration_oracle import CLI_BUILTINS, group_ring
from test_product_table_oracle import oracle_closed


def _sum(pres, subs):
    return _span(pres, [c for s in subs for c in s.columns])


def per_weight_pieces(m, values, kmax, cap):
    """F^0..F^kmax spanned by the products of weight at most `cap` of the
    gamma-values by weight, `values`."""
    pres = m.group
    products = {}
    spans = []
    for w in range(1, cap + 1):
        vecs = list(values.get(w, []))
        for i, gs in values.items():
            if i < w:
                vecs += _times(m, products, gs, spans[w - i - 1])
        spans.append(_span(pres, vecs))
    pieces = [_sum(pres, spans[kmax - 1:])]
    for k in range(kmax - 1, 0, -1):
        pieces.append(_sum(pres, [pieces[-1], spans[k - 1]]))
    return (full_subgroup(pres), *reversed(pieces))


def per_weight_filtration(m, kmax):
    """(pieces, weight cap, exact, warnings) from the per-weight spans."""
    values = _gamma_values(m, [m.group.reduce(v) for v in kernel_basis(m.aug)], m.trunc)
    certified = kmax + max(max(values, default=0) - 1, 0)
    cap = min(certified, m.trunc)
    pieces = per_weight_pieces(m, values, kmax, cap)
    # closure under the gamma-values is no clause of the verdict: it holds
    assert oracle_closed(
        m, pieces[kmax], [(i, m.element(g)) for i, gs in values.items() for g in gs])
    warnings = []
    if certified > m.trunc:
        warnings.append(
            "certified cap %d exceeds truncation %d, pieces use products "
            "up to weight %d" % (certified, m.trunc, m.trunc)
        )
    return pieces, cap, not warnings, tuple(warnings)


def _agrees(m, kmax):
    f = gamma_filtration(m, kmax)
    return (f.pieces, f.weight_cap, f.exact, f.warnings) == per_weight_filtration(m, kmax)


@pytest.mark.parametrize("trunc", [2, 4, 8])
@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_matches_per_weight_spans(name, kwargs, trunc):
    m = BUILTINS[name](**kwargs, trunc=trunc)
    for kmax in range(1, trunc + 1):
        assert _agrees(m, kmax), (m.name, trunc, kmax)


@pytest.mark.parametrize("orders", [(4,), (2, 2), (2, 2, 2), (2, 4)])
def test_group_ring_matches_per_weight_spans(orders):
    m = group_ring(orders)
    for kmax in range(1, 9):
        assert _agrees(m, kmax), (m.name, kmax)

