"""The gamma filtration is multiplicative: F^i * F^j lies in F^(i+j).

Every result flagged exact over the builtins' CLI range and four group rings
is checked on its pieces as built: each pair of HNF columns a of F^i and b of
F^j with 1 <= i <= j and i + j <= kmax, kmax = min(6, trunc), gives one
``RingModel.dot`` and one ``Subgroup.contains``.  A piece built short, from
too few products, fails the check even where the filtration's own closure
certificate passes; the mutation test below builds such pieces.
"""

from gwgamma.abelian import GroupElement, _entries
from gwgamma.filtration import _ProductTable, gamma_filtration
from gwgamma.models import BUILTINS

from test_filtration_oracle import CLI_BUILTINS, group_ring

GROUPS = ((4,), (2, 2), (2, 2, 2), (2, 4))


def _models():
    return [BUILTINS[name](**kwargs) for name, kwargs in CLI_BUILTINS] + [
        group_ring(orders) for orders in GROUPS]


def _exact_results():
    results = (gamma_filtration(m, min(6, m.trunc)) for m in _models())
    return [f for f in results if f.exact]


def _first_failure(f):
    """The first pair (i, j, a, b) with a*b outside F^(i+j), or None."""
    m, pieces = f.model, f.pieces
    for i in range(1, f.kmax // 2 + 1):
        for j in range(i, f.kmax + 1 - i):
            for a in pieces[i].columns:
                for b in pieces[j].columns:
                    ab = m.dot(((_entries(a), _entries(b)),))
                    if not pieces[i + j].contains(GroupElement(m.group, ab)):
                        return i, j, a, b
    return None


def test_exact_pieces_are_multiplicative():
    results = _exact_results()
    # all but P^12 over either base, whose certified cap 17 exceeds its
    # default truncation 16
    assert len(results) == len(CLI_BUILTINS) + len(GROUPS) - 2
    for f in results:
        assert _first_failure(f) is None, (f.model.name, _first_failure(f))


def test_pieces_built_short_fail(monkeypatch):
    # keep only the first product of each list: the pieces lose generators,
    # some result is still flagged exact, and the check catches it
    times = _ProductTable.times

    def first_only(self, ks, sub):
        return [p for k in ks for p in times(self, [k], sub)[:1]]

    monkeypatch.setattr(_ProductTable, "times", first_only)
    caught = [f.model.name for f in _exact_results() if _first_failure(f)]
    assert {"Z[C4]", "Z[C2xC2]", "Z[C2xC2xC2]", "Z[C2xC4]"} <= set(caught)
