"""The gamma filtration is multiplicative: F^i * F^j lies in F^(i+j).

Every result flagged exact over the builtins' CLI range and four group rings
is checked on its pieces as built: each pair of HNF columns a of F^i and b of
F^j with 1 <= i <= j and i + j <= kmax, kmax = min(6, trunc), gives one
``RingModel.dot`` and one ``Subgroup.contains``.  So is each of the 30
members K(P^n1 x ... x P^nr) of rank at most 16, at kmax
min(n1 + ... + nr + 1, trunc), where the last piece is zero.  A piece built
short, from too few products, fails the check even where the result is
flagged exact; the mutation tests below build such pieces.
"""

import math

import pytest

from gwgamma.abelian import GroupElement, _entries
from gwgamma import filtration
from gwgamma.filtration import gamma_filtration
from gwgamma.models import BUILTINS

from test_filtration_oracle import CLI_BUILTINS, fresh as fresh_build, group_ring
from test_projective_products import MEMBERS, projective_product

GROUPS = ((4,), (2, 2), (2, 2, 2), (2, 4))


def _models(fresh):
    """The builtins and group rings; built anew on an emptied registry of
    content records when `fresh`, so that no piece comes from a memo."""
    def build(make):
        return fresh_build(make) if fresh else make

    return [build(BUILTINS[name])(**kwargs) for name, kwargs in CLI_BUILTINS] + [
        build(group_ring)(orders) for orders in GROUPS]


def exact_results(fresh=False):
    results = (gamma_filtration(m, min(6, m.trunc)) for m in _models(fresh))
    return [f for f in results if f.exact]


def _first_failure(f):
    """The first pair (i, j, a, b) with a*b outside F^(i+j), or None."""
    m, pieces = f.model, f.pieces
    for i in range(1, f.kmax // 2 + 1):
        for j in range(i, f.kmax + 1 - i):
            for a in pieces[i].columns:
                for b in pieces[j].columns:
                    ab = m.dot(_entries(a), _entries(b))
                    if not pieces[i + j].contains(GroupElement(m.group, ab)):
                        return i, j, a, b
    return None


def test_exact_pieces_are_multiplicative():
    results = exact_results()
    # all but P^12 over either base, whose certified cap 17 exceeds its
    # default truncation 16
    assert len(results) == len(CLI_BUILTINS) + len(GROUPS) - 2
    for f in results:
        assert _first_failure(f) is None, (f.model.name, _first_failure(f))


def first_products_only(monkeypatch):
    """Make ``_times`` keep only the first product of each value's list, so
    that pieces lose generators while some result is still flagged exact."""
    times = filtration._times

    def first_only(m, spans, values, sub):
        return [p for g in values for p in times(m, spans, [g], sub)[:1]]

    monkeypatch.setattr(filtration, "_times", first_only)


def test_pieces_built_short_fail(monkeypatch):
    first_products_only(monkeypatch)
    caught = [f.model.name for f in exact_results(fresh=True) if _first_failure(f)]
    assert {"Z[C4]", "Z[C2xC2]", "Z[C2xC2xC2]", "Z[C2xC4]"} <= set(caught)


def _projective_result(ns):
    m = projective_product(ns)
    return gamma_filtration(m, min(sum(ns) + 1, m.trunc))


@pytest.mark.parametrize("ns", MEMBERS, ids=lambda ns: "x".join(map(str, ns)))
def test_projective_product_pieces_are_multiplicative(ns):
    f = _projective_result(ns)
    assert f.exact, f.model.name
    assert _first_failure(f) is None, (f.model.name, _first_failure(f))


def test_projective_products_built_short_fail(monkeypatch):
    # the members of rank at most 8; (P^1)^3 is one the Adams check misses
    first_products_only(monkeypatch)
    caught = []
    for ns in MEMBERS:
        if math.prod(n + 1 for n in ns) <= 8:
            f = _projective_result(ns)
            if f.exact and _first_failure(f):
                caught.append(ns)
    assert {(1, 1, 1), (2,), (2, 1), (3, 1), (7,)} <= set(caught)
