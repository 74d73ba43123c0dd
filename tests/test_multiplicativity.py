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

import pytest

from gwgamma.abelian import GroupElement, _entries

from reference import (
    CLI_BUILTINS, GROUPS, MEMBERS, caught_built_short, exact_results, members_caught_built_short,
    projective_result)


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


def test_pieces_built_short_fail(monkeypatch):
    caught = caught_built_short(monkeypatch, _first_failure)
    assert {"Z[C4]", "Z[C2xC2]", "Z[C2xC2xC2]", "Z[C2xC4]"} <= caught


@pytest.mark.parametrize("ns", MEMBERS, ids=lambda ns: "x".join(map(str, ns)))
def test_projective_product_pieces_are_multiplicative(ns):
    f = projective_result(ns)
    assert f.exact, f.model.name
    assert _first_failure(f) is None, (f.model.name, _first_failure(f))


def test_projective_products_built_short_fail(monkeypatch):
    # the members of rank at most 8; (P^1)^3 is one the Adams check misses
    caught = members_caught_built_short(monkeypatch, _first_failure)
    assert {(1, 1, 1), (2,), (2, 1), (3, 1), (7,)} <= caught
