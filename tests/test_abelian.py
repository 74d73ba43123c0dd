"""Subgroup lattice arithmetic checked against exhaustive enumeration.

The oracle works on finite presentations only: it closes a generating set
under addition to get the literal subgroup, counts cosets for the quotient
order, and recovers invariant factors from the multiset of element orders.
"""

import math
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import (
    GroupPresentation,
    _quotient,
    full_subgroup,
    hnf_columns,
    kernel_basis,
    quotient_presentation,
    project_element,
    relative_quotient_invariants,
    smith_normal_form,
    subgroup_from_generators,
)


def zero_subgroup(pres):
    """The subgroup of relations only: the zero subgroup of the group."""
    return subgroup_from_generators(pres, [])


def closure(pres, gens):
    seen = {pres.zero().coeffs}
    frontier = [pres.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y.coeffs not in seen:
                seen.add(y.coeffs)
                frontier.append(y)
    return seen


def invariant_order_multiset(invs):
    """Multiset of element orders of Z/d_1 + ... (finite input only)."""
    ranges = [range(d) for d in invs]
    out = []
    for coeffs in product(*ranges):
        n = 1
        for c, d in zip(coeffs, invs):
            if c:
                g = d // math.gcd(c, d)
                n = n * g // math.gcd(n, g)
        out.append(n)
    return sorted(out)


FINITE_PRESENTATIONS = [
    (2,),
    (4,),
    (2, 2),
    (2, 4),
    (8, 2),
    (3, 9),
    (2, 2, 2),
    (4, 4, 2),
    (6, 6),
    (2, 2, 2, 2, 2, 2, 2, 2),
    (16, 16),
    (5, 25),
]


def test_subgroup_membership_matches_enumeration():
    rng = random.Random(7)
    for orders in FINITE_PRESENTATIONS:
        pres = GroupPresentation(orders, tuple("g%d" % i for i in range(len(orders))))
        for _ in range(6):
            gens = [
                pres.element([rng.randrange(o) for o in orders])
                for _ in range(rng.randrange(1, 4))
            ]
            sub = subgroup_from_generators(pres, gens)
            literal = closure(pres, gens)
            for coeffs in product(*[range(o) for o in orders]):
                assert sub.contains(pres.element(coeffs)) == (coeffs in literal)


def test_quotient_invariants_match_enumeration():
    rng = random.Random(11)
    for orders in FINITE_PRESENTATIONS:
        pres = GroupPresentation(orders, tuple("g%d" % i for i in range(len(orders))))
        total = 1
        for o in orders:
            total *= o
        for _ in range(6):
            gens = [
                pres.element([rng.randrange(o) for o in orders])
                for _ in range(rng.randrange(0, 4))
            ]
            sub = subgroup_from_generators(pres, gens)
            literal = closure(pres, gens)
            invs = quotient_presentation(pres, sub)[0].orders
            assert 0 not in invs  # finite group, finite quotient
            size = 1
            for d in invs:
                size *= d
            assert size == total // len(literal)
            # coset orders by literal repeated addition, no normal forms
            cosets = set()
            for coeffs in product(*[range(o) for o in orders]):
                rep = min(
                    tuple(
                        (c + s) % o
                        for c, s, o in zip(coeffs, shift, orders)
                    )
                    for shift in literal
                )
                cosets.add(rep)
            coset_orders = []
            for rep in cosets:
                x = pres.element(rep)
                acc = x
                n = 1
                while acc.coeffs not in literal:
                    acc = acc + x
                    n += 1
                coset_orders.append(n)
            assert sorted(coset_orders) == invariant_order_multiset(invs)
            # quotient_presentation must have kernel exactly `literal`
            qpres, proj = quotient_presentation(pres, sub)
            for coeffs in product(*[range(o) for o in orders]):
                img = project_element(qpres, proj, pres.element(coeffs).coeffs)
                assert (not any(img)) == (coeffs in literal)


def test_subgroup_canonical_under_generator_permutation():
    rng = random.Random(23)
    pres = GroupPresentation((4, 0, 6), ("a", "b", "c"))
    for _ in range(40):
        gens = [
            pres.element([rng.randrange(-9, 10) for _ in range(3)])
            for _ in range(rng.randrange(1, 5))
        ]
        sub = subgroup_from_generators(pres, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert subgroup_from_generators(pres, shuffled + gens) == sub
        doubled = [2 * g for g in gens]
        smaller = subgroup_from_generators(pres, doubled)
        assert smaller <= sub


def test_hnf_refuses_zero_generator_of_wrong_length():
    # a zero vector was dropped before the length check, so it passed
    # silently; every generator is checked, zero or not
    for vectors in ([(0, 0, 0, 0, 0), (1, 0)], [(0,)], [(1, 0), (0, 0, 0)]):
        with pytest.raises(ValueError, match="generator of wrong length"):
            hnf_columns(vectors, 2)
    assert hnf_columns([(0, 0), (1, 0)], 2) == (((1, 0),), (0,))


def test_hnf_frozen_values():
    cols, pivots = hnf_columns([(2, 0), (3, 0)], 2)
    assert cols == ((1, 0),)
    assert pivots == (0,)
    cols, pivots = hnf_columns([(4, 2), (2, 4)], 2)
    # lattice spanned by (4,2),(2,4): index 12 in Z^2
    assert pivots == (0, 1)
    assert cols[0][0] > 0 and cols[1][1] > 0
    det = cols[0][0] * cols[1][1]
    assert det == 12
    assert cols == ((2, 4), (0, 6))


def _det(mat):
    if not mat:
        return 1
    return sum(
        (-1) ** j * mat[0][j] * _det([r[:j] + r[j + 1:] for r in mat[1:]])
        for j in range(len(mat))
    )


def test_smith_normal_form_transforms():
    rng = random.Random(5)
    for _ in range(30):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
        diag, u = smith_normal_form(a)
        assert _det(u) in (1, -1)
        # U*A and D have the same column lattice, i.e. U*A*V = D for a
        # unimodular V
        ua_cols = [
            [sum(u[i][k] * a[k][j] for k in range(m)) for i in range(m)]
            for j in range(n)
        ]
        d_cols = [
            [diag[j] if i == j and j < len(diag) else 0 for i in range(m)]
            for j in range(n)
        ]
        assert hnf_columns(ua_cols, m) == hnf_columns(d_cols, m)
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0


def test_relative_quotient_on_nested_chain():
    # F_k = 2^(k-1) * (L - 1) * Z inside Z^2, successive quotients Z/2
    pres = GroupPresentation((0, 0), ("one", "L"))
    chain = [
        subgroup_from_generators(pres, [pres.element((-(2 ** k), 2 ** k))])
        for k in range(0, 5)
    ]
    for big, small in zip(chain, chain[1:]):
        assert relative_quotient_invariants(big, small) == (2,)
    assert quotient_presentation(pres, full_subgroup(pres))[0].orders == ()
    assert quotient_presentation(pres, zero_subgroup(pres))[0].orders == (0, 0)


# the free and mixed presentations of the tests below, and rank 0
OTHER_PRESENTATIONS = [(), (0,), (0, 0), (0,) * 5, (2, 0), (0, 4, 0), (4, 0, 6)]


def test_full_subgroup_is_the_span_of_the_basis():
    for orders in FINITE_PRESENTATIONS + OTHER_PRESENTATIONS:
        pres = GroupPresentation(orders, tuple("g%d" % i for i in range(len(orders))))
        assert full_subgroup(pres) == subgroup_from_generators(pres, pres.basis())


@st.composite
def nested_pairs(draw):
    """A subgroup `big` of a drawn presentation with torsion or free factors,
    from up to four drawn generators, and a subgroup `small` of it, from
    small integer combinations of those generators."""
    orders = tuple(draw(st.lists(st.sampled_from([0, 0, 2, 3, 4, 6]), min_size=1, max_size=4)))
    rank = len(orders)
    pres = GroupPresentation(orders, tuple("g%d" % i for i in range(rank)))
    gens = draw(st.lists(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank),
                         max_size=4))
    combos = draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(gens),
                                    max_size=len(gens)), max_size=4))
    big = subgroup_from_generators(pres, [pres.element(g) for g in gens])
    small = subgroup_from_generators(pres, [
        pres.element([sum(c * g[t] for c, g in zip(cs, gens)) for t in range(rank)])
        for cs in combos
    ])
    return big, small


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nested_pairs())
def test_relative_quotient_matches_unstripped_smith(pair):
    # dropping each lift +-e_r and its row r leaves the invariant factors
    # of the full matrix of lifts
    big, small = pair
    lifts = [big._solve(col) for col in small.columns]
    want = tuple(d for d, _ in _quotient(big.ncols, lifts))
    assert relative_quotient_invariants(big, small) == want


def test_relative_quotient_of_equal_subgroups_skips_smith(monkeypatch):
    # equal subgroups from different generators have the same canonical
    # HNF, so their quotient is trivial without a Smith normal form
    import gwgamma.abelian as abelian

    pres = GroupPresentation((0, 4, 0), ("a", "b", "c"))
    gens = [pres.element(v) for v in ((2, 1, 0), (0, 2, 3))]
    big = subgroup_from_generators(pres, gens)
    small = subgroup_from_generators(pres, [gens[0] + gens[1], gens[1], gens[1] * 3])
    assert big is not small and big.columns == small.columns
    calls = []
    snf = abelian.smith_normal_form

    def counted(rows):
        calls.append(rows)
        return snf(rows)

    monkeypatch.setattr(abelian, "smith_normal_form", counted)
    full = full_subgroup(pres)
    assert relative_quotient_invariants(big, small) == ()
    assert relative_quotient_invariants(full, full) == ()
    assert calls == []
    # subgroups that are not nested still raise, whichever way round
    other = subgroup_from_generators(pres, [pres.element((3, 0, 0))])
    for a, b in ((big, other), (other, big)):
        with pytest.raises(ValueError, match="not nested"):
            relative_quotient_invariants(a, b)


def test_kernel_basis_spans_kernel():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 6)
        row = [rng.randrange(-6, 7) for _ in range(n)]
        basis = kernel_basis(row)
        for vec in basis:
            assert sum(r * x for r, x in zip(row, vec)) == 0
        # every small kernel vector must lie in the lattice spanned by basis
        pres = GroupPresentation((0,) * n, tuple("x%d" % i for i in range(n)))
        sub = subgroup_from_generators(pres, [pres.element(v) for v in basis])
        for probe in product(range(-2, 3), repeat=n):
            if sum(r * x for r, x in zip(row, probe)) == 0:
                assert sub.contains(pres.element(probe))
        expected_rank = n - (1 if any(row) else 0)
        assert len(hnf_columns(basis, n)[0]) == expected_rank


def test_quotient_presentation_roundtrip():
    pres = GroupPresentation((0, 0), ("one", "L"))
    sub = subgroup_from_generators(pres, [pres.element((1, 1))])
    qpres, proj = quotient_presentation(pres, sub)
    assert qpres.orders == (0,)
    img = project_element(qpres, proj, pres.element((-1, 1)).coeffs)
    assert any(img)
    assert not any(project_element(qpres, proj, pres.element((1, 1)).coeffs))
    # torsion example: Z^2 / <(2,0),(0,2)> = (Z/2)^2
    sub2 = subgroup_from_generators(
        pres, [pres.element((2, 0)), pres.element((0, 2))]
    )
    qpres2, proj2 = quotient_presentation(pres, sub2)
    assert sorted(qpres2.orders) == [2, 2]
