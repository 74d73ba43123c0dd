"""End-to-end checks of the package's principal computational claims.

One test per claim, ordered; each is exact integer arithmetic with zero
tolerance and finishes in well under ten seconds.  The claims cover the
ring structures of the builtin models, their filtration chains, the
operation identities, torsion behaviour, the GF(2) characteristic-class
identities, and the enumeration oracles backing the low-level kernels.
"""

import random
from itertools import product as cartesian

from gwgamma.abelian import (
    GroupPresentation,
    quotient_presentation,
    relative_quotient_invariants,
    subgroup_from_generators,
)
from gwgamma.cli import model_from_dict, model_to_dict
from gwgamma.filtration import gamma_filtration, witt_filtration
from gwgamma.lambdaring import (
    gamma_k,
    gamma_total,
    lambda_k,
    psi_k,
    validate_model,
    verify_special_pair,
)
from gwgamma.milnor import (
    check_identities,
    omega,
    top_class_product,
    top_class_sum,
)
from gwgamma.models import (
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
    line_elements,
    projective_top_power,
)
from gwgamma.series import TruncSeries
from gwgamma.symfunc import MultiPoly
from test_abelian import zero_subgroup
from test_models import assert_twisted_classes, punctured_gamma_coefficients, torsion_elements
from test_symfunc import expand_elementary, is_symmetric, to_elementary


def span(model, elems):
    return subgroup_from_generators(model.group, [e.value for e in elems])


def sub_invariants(sub):
    return relative_quotient_invariants(sub, zero_subgroup(sub.pres))


def test_01_complex_projective_spaces():
    for r in range(2, 8):
        m = gw_projective("C", r)
        rho = (r + 1) // 2
        top = projective_top_power(r)
        # additive structure splits into three congruence cases
        if r % 2 == 0:
            assert m.group.orders == (0,) * (rho + 1)
            assert top == rho
        elif r % 4 == 1:
            assert m.group.orders == (0,) * rho + (2,)
            assert top == rho
        else:
            assert m.group.orders == (0,) * rho
            assert top == rho - 1
        a = m.basis_element(1)
        for k in range(1, top + 1):
            assert not (a**k).is_zero
        for k in range(top + 1, top + 4):
            assert (a**k).is_zero
        kmax = 2 * top + 1
        f = gamma_filtration(m, kmax=kmax)
        assert f.exact
        powers = [m.basis_element(i) for i in range(1, m.group.rank)]
        for i in range(1, kmax + 1):
            lo = (i + 1) // 2
            if lo <= top:
                expected = span(m, powers[lo - 1 :])
            else:
                expected = zero_subgroup(m.group)
            assert f.pieces[i] == expected, (r, i)
        # graded pieces place a in degree two, odd degrees empty
        expected_graded = [(0,)] + [()] * (kmax - 1)
        for i in range(1, top + 1):
            expected_graded[2 * i] = (0,)
        if r % 4 == 1:
            expected_graded[2 * rho] = (2,)
        assert f.graded == tuple(expected_graded), r


def test_02_real_projective_plane_rank_two_class():
    m = gw_projective("R", 2)
    one, L, a = m.basis_element(0), m.basis_element(1), m.basis_element(2)
    e = a + one + L
    # second Adams operation lands off the constant 2
    diag = one + 2 * L
    assert psi_k(e, 2) == -2 * diag + 4 * e
    assert psi_k(e, 2) != 2 * one
    assert lambda_k(e, 2) == L


def test_03_hyperbolic_shift_gamma_terminates():
    cases = [
        (gw_projective("C", 5), ["a"]),
        (gw_projective("R", 3), ["a"]),
        (gw_surface_cxp1(2), ["b", "c", "d0", "d1", "d2"]),
        (gw_punctured_a5(3), ["eps"]),
    ]
    for m, labels in cases:
        for label in labels:
            x = m.basis_element(list(m.group.names).index(label))
            assert gamma_k(x, 2) == -x, (m.name, label)
            for i in range(3, 9):
                assert gamma_k(x, i).is_zero, (m.name, label, i)
    # the punctured line's generator is line-minus-one, not a shift
    m = gw_punctured_line()
    eps = m.basis_element(2)
    assert gamma_total(eps, 8) == TruncSeries(m, [m.unit.coeffs, eps.value.coeffs], 8)


def test_04_real_point_two_adic_chain():
    m = gw_point("R")
    f = gamma_filtration(m, kmax=7)
    one, L = m.basis_element(0), m.basis_element(1)
    eta = L - one
    for k in range(1, 7):
        assert f.pieces[k] == span(m, [2 ** (k - 1) * eta]), k
        assert f.graded[k] == (2,), k
    lines = line_elements(m)
    assert len(lines) == 2
    order = 1
    for d in f.graded[1]:
        order *= d
    assert order == len(lines)


def test_05_punctured_line_chain():
    m = gw_punctured_line()
    f = gamma_filtration(m, kmax=6)
    one, L, eps = m.basis_elements()
    eta = L - one
    for i in range(1, 6):
        expected = span(m, [2 ** (i - 1) * eta, 2 ** (i - 1) * eps])
        assert f.pieces[i] == expected, i
        assert f.graded[i] == (2, 2), i


def test_06_punctured_affine_five_space():
    m = gw_punctured_a5(3)
    f = gamma_filtration(m, kmax=4)
    assert sub_invariants(f.pieces[1]) == (2,)
    assert f.pieces[1] == f.pieces[2]
    assert sub_invariants(f.pieces[3]) == ()
    # quotient by the (empty) hyperbolic ideal changes nothing
    w = witt_filtration(m, gamma_filtration(m, kmax=4))
    assert w.graded == f.graded
    assert [sub_invariants(p) for p in w.pieces] == [
        sub_invariants(p) for p in f.pieces
    ]
    for fpar in (3, 4, 5):
        c = punctured_gamma_coefficients(fpar, 4)
        assert c[0] == 1
        assert c[1] % 2 == 1, fpar
        assert c[2] % 2 == 0 and c[3] % 2 == 0, fpar


def test_07_surface_two_torsion_picard():
    for s in (1, 2, 3):
        m = gw_surface_cxp1(s)
        f = gamma_filtration(m, kmax=4)
        assert sub_invariants(f.pieces[3]) == (2,) * s, s
        assert sub_invariants(f.pieces[4]) == (), s
        assert len(line_elements(m)) == 2**s


def test_08_special_identities_and_fault_detection():
    instances = [
        gw_point("C"),
        gw_point("R"),
        gw_projective("C", 2),
        gw_projective("C", 3),
        gw_projective("C", 4),
        gw_projective("R", 2),
        gw_punctured_line(),
        gw_punctured_a5(3),
        gw_surface_cxp1(1),
        gw_surface_cxp1(2),
    ]
    for m in instances:
        elems = m.basis_elements()
        for i in range(len(elems)):
            for j in range(i, len(elems)):
                rep = verify_special_pair(elems[i], elems[j], bound=3)
                assert rep.ok, (m.name, i, j, rep.first_failure)
    # a single flipped sign in a degree-two coefficient must surface
    doc = model_to_dict(gw_projective("C", 4))
    doc["lambda"]["a"][1] = [-c for c in doc["lambda"]["a"][1]]
    bad = model_from_dict(doc)
    assert validate_model(bad).ok  # plain ring axioms cannot see the flip
    elems = bad.basis_elements()
    reports = [
        verify_special_pair(elems[i], elems[j], bound=3)
        for i in range(len(elems))
        for j in range(i, len(elems))
    ]
    assert any(not rep.ok for rep in reports)


def test_09_two_torsion_cubes_vanish():
    instances = [
        gw_point("C"),
        gw_point("R"),
        gw_projective("C", 5),
        gw_projective("R", 5),
        gw_punctured_line(),
        gw_punctured_a5(3),
        gw_punctured_a5(4),
        gw_surface_cxp1(2),
        gw_surface_cxp1(3),
    ]
    checked = 0
    for m in instances:
        for g in torsion_elements(m.group):
            x = m.element(g.coeffs)
            if (x + x).value.is_zero:
                assert (x * x * x).value.is_zero, (m.name, g.coeffs)
                checked += 1
    # the largest torsion subgroup alone contributes 256 classes
    assert checked > 256


def test_10_characteristic_class_identities():
    for n in (1, 2, 3, 4):
        top = 2 ** (n - 1)
        assert omega(n, top).min_positive_degree() == top, n
        product_form = top_class_product(n)
        sum_form = top_class_sum(n)
        assert product_form == sum_form, n
        assert omega(n, top).homogeneous_part(top) == product_form, n
        assert check_identities(n).ok


def test_11_alternating_binomial_twist_sum():
    for base, r in [("C", 3), ("C", 5), ("C", 7), ("C", 9), ("R", 5)]:
        assert_twisted_classes(gw_projective(base, r), r)


def test_12_kernel_oracle_suites():
    rng = random.Random(12)

    # subgroup and quotient machinery versus exhaustive enumeration
    for orders in [(2, 4, 8), (3, 9), (2, 2, 2, 2), (16,), (12, 2), (4, 4, 4)]:
        names = tuple("g%d" % i for i in range(len(orders)))
        pres = GroupPresentation(orders, names)
        elements = [
            pres.element(v) for v in cartesian(*[range(d) for d in orders])
        ]
        assert len(elements) <= 256
        for _ in range(3):
            gens = [rng.choice(elements) for _ in range(rng.randrange(1, 4))]
            closure = {pres.zero().coeffs}
            frontier = [pres.zero()]
            while frontier:
                cur = frontier.pop()
                for g in gens:
                    nxt = cur + g
                    if nxt.coeffs not in closure:
                        closure.add(nxt.coeffs)
                        frontier.append(nxt)
            sub = subgroup_from_generators(pres, gens)
            members = {e.coeffs for e in elements if sub.contains(e)}
            assert members == closure
            inv = quotient_presentation(pres, sub)[0].orders
            index = 1
            for d in inv:
                index *= d
            assert index * len(closure) == len(elements)

    # symmetric polynomials round-trip through the elementary basis
    for n in (2, 3, 4, 5):
        for _ in range(4):
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                exps = tuple(rng.randrange(3) for _ in range(n))
                if sum((i + 1) * e for i, e in enumerate(exps)) <= 6:
                    terms[exps] = rng.choice([-3, -2, -1, 1, 2, 3])
            q = MultiPoly(n, terms or {(0,) * n: 1})
            p = expand_elementary(q, n)
            assert is_symmetric(p)
            assert to_elementary(p) == q

    # the two standard series substitutions are mutually inverse
    m = gw_point("C")
    for _ in range(6):
        coeffs = [(rng.randrange(-9, 10),) for _ in range(12)]
        s = TruncSeries(m, [(1,), *coeffs], 12)
        assert s.substitute_geometric().substitute_alternating() == s
        assert s.substitute_alternating().substitute_geometric() == s
