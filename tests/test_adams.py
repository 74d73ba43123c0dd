"""The gamma filtration against the Adams operations.

In a special lambda-ring psi^j acts on gr^k = F^k / F^(k+1) as
multiplication by j^k, so psi^j - j^k maps F^k into F^(k+1) (Weibel, *The
K-book*, Ch. II §4; Fulton and Lang, *Riemann-Roch Algebra*, Ch. III).  The
check does not depend on how the pieces are built.  psi^j is additive, so
it is one integer matrix per j, its columns psi^j of the basis elements
from ``psi_k``; each HNF column x of F^k, 0 <= k < kmax, gives one matrix
product and one ``Subgroup.contains``.

Every result flagged exact over the builtins' CLI range and the four group
rings of ``test_multiplicativity`` is checked at kmax min(6, trunc), for
j = 2 and 3, and so is each of the 30 members K(P^n1 x ... x P^nr) of
``test_projective_products`` at kmax min(n1 + ... + nr + 1, trunc).  A
piece built short fails it even where the result is flagged exact; the
mutation tests below build such pieces.
"""

import math

from gwgamma.lambdaring import psi_k

from test_multiplicativity import _projective_result, exact_results, first_products_only
from test_projective_products import MEMBERS


def adams_columns(m, j):
    """psi^j(b_i) for each basis element b_i, as coefficient tuples."""
    return [psi_k(b, j).value.coeffs for b in m.basis_elements()]


def first_adams_failure(f):
    """The first (j, k, x) with (psi^j - j^k)(x) outside F^(k+1), for an HNF
    column x of F^k, or None."""
    m, pieces = f.model, f.pieces
    for j in (2, 3):
        psi = adams_columns(m, j)
        for k in range(f.kmax):
            for x in pieces[k].columns:
                image = [sum(c * col[t] for c, col in zip(x, psi) if c) - j ** k * x[t]
                         for t in range(m.group.rank)]
                if not pieces[k + 1].contains(m.group.element(image)):
                    return j, k, x
    return None


def test_exact_pieces_respect_adams_operations():
    results = exact_results()
    assert results
    for f in results:
        assert first_adams_failure(f) is None, (f.model.name, first_adams_failure(f))


def test_pieces_built_short_fail_adams(monkeypatch):
    first_products_only(monkeypatch)
    caught = [f.model.name for f in exact_results(fresh=True) if first_adams_failure(f)]
    assert {"Z[C4]", "Z[C2xC2]", "Z[C2xC2xC2]", "Z[C2xC4]"} <= set(caught)


def test_projective_product_pieces_respect_adams_operations():
    for ns in MEMBERS:
        f = _projective_result(ns)
        assert f.exact, f.model.name
        assert first_adams_failure(f) is None, (f.model.name, first_adams_failure(f))


def test_projective_products_built_short_fail_adams(monkeypatch):
    # the members of rank at most 8; the check misses (P^1)^3, which
    # test_multiplicativity catches
    first_products_only(monkeypatch)
    caught = []
    for ns in MEMBERS:
        if math.prod(n + 1 for n in ns) <= 8:
            f = _projective_result(ns)
            if f.exact and first_adams_failure(f):
                caught.append(ns)
    assert {(2,), (2, 1), (3, 1), (7,)} <= set(caught)
