"""Filtration engine checks against hand-computed subgroup chains."""

import pytest

from gwgamma.abelian import (
    GroupPresentation,
    subgroup_from_generators,
    zero_subgroup,
)
from gwgamma.filtration import (
    augmentation_kernel,
    gamma_filtration,
    witt_filtration,
    witt_quotient,
)
from gwgamma.lambdaring import RingModel, gamma_k, validate_model
from gwgamma.models import (
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
    line_elements,
)
from gwgamma.series import TruncSeries, lambda_from_gamma


def span(model, *vecs):
    return subgroup_from_generators(
        model.group, [model.group.element(v) for v in vecs]
    )


def test_point_c_trivial_filtration():
    m = gw_point("C")
    f = gamma_filtration(m, kmax=4)
    assert f.exact
    assert f.pieces[1] == zero_subgroup(m.group)
    assert f.graded == ((0,), (), (), ())


def test_point_r_two_adic_chain():
    # gamma-values of L-1 never vanish, yet each extra factor doubles the
    # generator, so the closure certificate still applies
    m = gw_point("R")
    f = gamma_filtration(m, kmax=6)
    assert f.exact
    for k in range(1, 7):
        assert f.pieces[k] == span(m, (2 ** (k - 1), -(2 ** (k - 1))))
    assert f.graded == ((0,),) + ((2,),) * 5


def test_projective_complex_chain():
    # F^(2k-1) = F^(2k) = <a^k, ..., a^top>, zero beyond twice the top power
    m = gw_projective("C", 5)
    f = gamma_filtration(m, kmax=7)
    assert f.exact
    e1 = (0, 1, 0, 0)
    e2 = (0, 0, 1, 0)
    e3 = (0, 0, 0, 1)
    assert f.pieces[1] == span(m, e1, e2, e3)
    assert f.pieces[2] == span(m, e1, e2, e3)
    assert f.pieces[3] == span(m, e2, e3)
    assert f.pieces[4] == span(m, e2, e3)
    assert f.pieces[5] == span(m, e3)
    assert f.pieces[6] == span(m, e3)
    assert f.pieces[7] == zero_subgroup(m.group)
    assert f.graded == ((0,), (), (0,), (), (0,), (), (2,))


def test_projective_even_chain():
    m = gw_projective("C", 4)
    f = gamma_filtration(m, kmax=6)
    assert f.exact
    e1 = (0, 1, 0)
    e2 = (0, 0, 1)
    assert f.pieces[1] == span(m, e1, e2)
    assert f.pieces[2] == span(m, e1, e2)
    assert f.pieces[3] == span(m, e2)
    assert f.pieces[4] == span(m, e2)
    assert f.pieces[5] == zero_subgroup(m.group)
    assert f.graded == ((0,), (), (0,), (), (0,), ())


def test_punctured_line_chain():
    m = gw_punctured_line()
    f = gamma_filtration(m, kmax=5)
    assert f.exact
    for k in range(1, 6):
        c = 2 ** (k - 1)
        assert f.pieces[k] == span(m, (c, -c, 0), (0, 0, c))
    assert f.graded == ((0,),) + ((2, 2),) * 4


def test_punctured_space_chain():
    m = gw_punctured_a5(3)
    f = gamma_filtration(m, kmax=4)
    assert f.exact
    eps = (0, 1)
    assert f.pieces[1] == span(m, eps)
    assert f.pieces[2] == span(m, eps)
    assert f.pieces[3] == zero_subgroup(m.group)
    assert f.pieces[4] == zero_subgroup(m.group)
    assert f.graded == ((0,), (), (2,), ())


def test_surface_chain():
    s = 2
    m = gw_surface_cxp1(s)
    f = gamma_filtration(m, kmax=5)
    assert f.exact
    names = list(m.group.names)

    def e(label):
        v = [0] * m.group.rank
        v[names.index(label)] = 1
        return tuple(v)

    def plus(u, v):
        return tuple(a + b for a, b in zip(u, v))

    assert f.pieces[1] == span(
        m, e("a1"), e("a2"), e("b"), e("c"), e("d0"), e("d1"), e("d2")
    )
    assert f.pieces[2] == span(m, e("b"), e("c"), e("d0"), e("d1"), e("d2"))
    assert f.pieces[3] == span(m, plus(e("d1"), e("c")), plus(e("d2"), e("c")))
    assert f.pieces[4] == zero_subgroup(m.group)
    assert f.graded[1] == (2,) * s
    assert f.graded[2] == (2, 2, 0)
    assert f.graded[3] == (2,) * s


def test_pieces_are_nested():
    cases = [
        (gw_point("R"), 6),
        (gw_projective("C", 6), 7),
        (gw_projective("R", 3), 5),
        (gw_punctured_line(), 5),
        (gw_punctured_a5(4), 4),
        (gw_surface_cxp1(1), 5),
    ]
    for m, kmax in cases:
        f = gamma_filtration(m, kmax=kmax)
        for k in range(kmax):
            assert f.pieces[k + 1] <= f.pieces[k], (m.name, k)


def test_degree_one_graded_matches_line_group():
    cases = [
        gw_point("C"),
        gw_point("R"),
        gw_projective("C", 4),
        gw_projective("R", 5),
        gw_punctured_line(),
        gw_punctured_a5(3),
        gw_surface_cxp1(2),
    ]
    for m in cases:
        f = gamma_filtration(m, kmax=3)
        inv = f.graded[1]
        assert all(d > 0 for d in inv), m.name
        order = 1
        for d in inv:
            order *= d
        assert order == len(line_elements(m)), m.name


def test_first_piece_is_rank_kernel():
    for m in (gw_projective("C", 5), gw_punctured_line()):
        f = gamma_filtration(m, kmax=2)
        sub, gens = augmentation_kernel(m)
        assert f.pieces[1] == sub
        assert f.pieces[1] == subgroup_from_generators(
            m.group, [e.value for e in gens]
        )
        for e in gens:
            assert m.augmentation(e.value) == 0


def test_witt_quotient_of_real_point():
    m = gw_point("R")
    _, _, invariants = witt_quotient(m)
    assert invariants == (0,)
    w = witt_filtration(m, kmax=6)
    # the Witt ring of R is Z and every graded piece becomes Z/2
    assert w.group.orders == (0,)
    assert w.graded == ((2,),) * 6


def test_witt_quotient_without_hyperbolic_data():
    m = gw_point("C")
    bare = type(m)(
        "bare", m.group, m.unit.coeffs,
        {(0, 0): (1,)}, m.aug,
        [[(1,)]], None, m.trunc,
    )
    with pytest.raises(ValueError):
        witt_filtration(bare)


def test_witt_quotient_of_punctured_space_is_unchanged():
    m = gw_punctured_a5(3)
    g = gamma_filtration(m, kmax=4)
    _, _, invariants = witt_quotient(m)
    assert invariants == (2, 0)
    w = witt_filtration(m, f=g)
    assert w.graded == g.graded
    assert w.exact == g.exact


def test_witt_quotient_of_surface():
    m = gw_surface_cxp1(2)
    _, _, invariants = witt_quotient(m)
    assert invariants == (2, 2, 0)
    w = witt_filtration(m, kmax=4)
    assert w.graded[0] == (0,)
    assert w.graded[1] == (2, 2)
    assert w.graded[2] == ()
    assert w.graded[3] == ()


def test_ideal_property_on_piece_generators():
    # products of F^k and F^j generators land in F^(k+j)
    for m in (gw_projective("C", 5), gw_punctured_line(), gw_surface_cxp1(2)):
        kmax = 6
        f = gamma_filtration(m, kmax=kmax)
        for k in range(1, kmax):
            for j in range(1, kmax - k + 1):
                for u in f.pieces[k].columns:
                    for v in f.pieces[j].columns:
                        prod = m.multiply(
                            m.group.element(u), m.group.element(v)
                        )
                        assert f.pieces[k + j].contains(prod), (m.name, k, j)


def test_heuristic_fallback_under_tight_budget():
    # projective 7-space carries gamma-values up to weight 6, so a
    # truncation of 8 is below the certified cap and triggers the
    # stabilization path
    m = gw_projective("C", 7, trunc=8)
    f = gamma_filtration(m, kmax=7)
    assert not f.exact
    assert any("budget" in w for w in f.warnings)
    full = gamma_filtration(gw_projective("C", 7), kmax=7)
    assert full.exact
    assert full.pieces == f.pieces


def test_budget_and_kmax_guards():
    m = gw_point("R")
    with pytest.raises(ValueError):
        gamma_filtration(m, kmax=0)
    with pytest.raises(ValueError):
        gamma_filtration(m, kmax=2, window=0)
    with pytest.raises(ValueError):
        gamma_filtration(gw_point("R", trunc=4), kmax=6)


def test_gap_in_gamma_series_is_not_termination():
    # basis (1, x), x^2 = 0, gamma_t(x) = 1 + x t + x t^3: the weight-2
    # gamma-value vanishes but the weight-3 one does not, so F^2 = Zx
    gamma = TruncSeries((1, 1, 0, 1) + (0,) * 13)
    m = RingModel(
        "gap", GroupPresentation((0, 0), ("one", "x")), (1, 0),
        {(0, 0): (1, 0), (0, 1): (0, 1)}, (1, 0),
        [[(1, 0)], [(0, c) for c in lambda_from_gamma(gamma).coeffs[1:]]],
    )
    assert validate_model(m).ok
    x = m.basis_element(1)
    assert [gamma_k(x, i) for i in (1, 2, 3)] == [x, m.zero_element, x]
    f = gamma_filtration(m, kmax=2)
    assert f.exact
    assert f.pieces[2] == span(m, (0, 1))
