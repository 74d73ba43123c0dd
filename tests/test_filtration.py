"""Filtration engine checks against hand-computed subgroup chains."""

import functools
from dataclasses import replace

import pytest

from gwgamma.abelian import (
    GroupPresentation,
    kernel_basis,
    subgroup_from_generators,
)
from gwgamma.filtration import (
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
from test_abelian import zero_subgroup
from test_filtration_oracle import fresh, group_ring
from test_series import z_series


def trivial_model(n):
    """Basis one, x1..x(n-1) with only the unit products, x_i of rank zero
    and lambda_t(x_i) = 1 + x_i t, so gamma^i(x_i) = x_i at every weight."""
    def e(i):
        return tuple(int(t == i) for t in range(n))

    names = ("one",) + tuple("x%d" % i for i in range(1, n))
    return RingModel(
        "trivial%d" % n, GroupPresentation((0,) * n, names), e(0),
        {(0, j): e(j) for j in range(n)}, e(0), [[e(i)] for i in range(n)],
    )


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
    # gamma_t(L-1) = 1 + (L-1) t, and the powers of L-1 never vanish, yet
    # each extra factor doubles the generator: (L-1)^2 = -2(L-1)
    m = gw_point("R")
    f = gamma_filtration(m, kmax=6)
    assert f.exact
    for k in range(1, 7):
        assert f.pieces[k] == span(m, (2 ** (k - 1), -(2 ** (k - 1))))
    assert f.graded == ((0,),) + ((2,),) * 5


def test_point_r_classical_filtration_by_hand():
    # x = n(L - 1) has total Stiefel-Whitney class (1 + e)^n, so w1 = n e and
    # w2 = C(n, 2) e^2; the "classical" pieces ker w1 and ker w1 & ker w2 of
    # F^1 are F^2 and F^3
    m = gw_point("R")
    f = gamma_filtration(m, kmax=3)
    for n in range(-16, 17):
        x = m.group.element((-n, n))
        w1, w2 = n % 2, n * (n - 1) // 2 % 2
        assert f.pieces[1].contains(x)
        assert f.pieces[2].contains(x) == (w1 == 0), n
        assert f.pieces[3].contains(x) == (w1 == w2 == 0) == (n % 4 == 0), n


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
        gens = [m.group.element(v) for v in kernel_basis(m.aug)]
        assert f.pieces[1] == subgroup_from_generators(m.group, gens)
        for g in gens:
            assert m.augmentation(g) == 0


def test_witt_quotient_of_real_point():
    m = gw_point("R")
    qpres, _ = witt_quotient(m)
    assert qpres.orders == (0,)
    w = witt_filtration(m, gamma_filtration(m, kmax=6))
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
    f = gamma_filtration(bare)
    with pytest.raises(ValueError, match="declares no hyperbolic classes"):
        witt_filtration(bare, f)


def test_witt_quotient_of_punctured_space_is_unchanged():
    m = gw_punctured_a5(3)
    g = gamma_filtration(m, kmax=4)
    qpres, _ = witt_quotient(m)
    assert qpres.orders == (2, 0)
    w = witt_filtration(m, f=g)
    assert w.graded == g.graded
    assert w.exact == g.exact


def test_witt_filtration_refuses_another_models_filtration():
    # the filtration of P^4 over C, pushed into the Witt quotient of the
    # punctured line, read exact with graded ((), (), (0,)); the true
    # graded pieces are ((2,), (2, 2), (2, 2))
    m = gw_punctured_line()
    with pytest.raises(ValueError, match="not a gamma filtration"):
        witt_filtration(m, gamma_filtration(gw_projective("C", 4), kmax=3))
    with pytest.raises(ValueError, match="not a gamma filtration"):
        witt_filtration(m, gamma_filtration(gw_punctured_line.__wrapped__(), kmax=3))
    w = witt_filtration(m, gamma_filtration(m, kmax=3))
    assert w.exact
    assert w.graded == ((2,), (2, 2), (2, 2))
    with pytest.raises(ValueError, match="not a gamma filtration"):
        witt_filtration(m, w)


def test_witt_filtration_refuses_a_forged_result_of_its_model():
    # results of the right model that gamma_filtration did not return: all
    # pieces F^0 (read exact with graded ((), (), ())), the exact flag
    # flipped, and the pieces of kmax 2 under kmax 3 (two graded groups)
    m = gw_punctured_line()
    f = gamma_filtration(m, 3)
    for forged in (
        replace(f, pieces=f.pieces[:1] * 4),
        replace(f, exact=not f.exact),
        replace(gamma_filtration(m, 2), kmax=3),
    ):
        with pytest.raises(ValueError, match="not a gamma filtration"):
            witt_filtration(m, forged)
    assert witt_filtration(m, f).graded == ((2,), (2, 2), (2, 2))


def test_witt_quotient_of_surface():
    m = gw_surface_cxp1(2)
    qpres, _ = witt_quotient(m)
    assert qpres.orders == (2, 2, 0)
    w = witt_filtration(m, gamma_filtration(m, kmax=4))
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
                        prod = m.element(u) * m.element(v)
                        assert f.pieces[k + j].contains(prod.value), (m.name, k, j)


@functools.lru_cache(maxsize=None)
def _certified_projective(base, r):
    f = gamma_filtration(gw_projective(base, r, trunc=20))
    assert f.exact
    return f


@pytest.mark.parametrize("trunc", (8, 12, 16))
@pytest.mark.parametrize("r", range(7, 13))
@pytest.mark.parametrize("base", "CR")
def test_uncertified_pieces_match_certified(base, r, trunc):
    # the gamma-values of projective r-space reach a weight near r, so at a
    # short truncation the certified cap kmax + i_max - 1 lies beyond it;
    # the pieces built from the products up to the truncation must still
    # be the certified ones
    f = gamma_filtration(gw_projective(base, r, trunc=trunc))
    assert f.exact == (trunc == 16 and r <= 9)
    if f.exact:
        return
    assert f.weight_cap == trunc
    assert len(f.warnings) == 1
    assert "exceeds truncation %d" % trunc in f.warnings[0]
    assert f.pieces == _certified_projective(base, r).pieces


def test_budget_and_kmax_guards():
    m = gw_point("R")
    with pytest.raises(ValueError):
        gamma_filtration(m, kmax=0)
    with pytest.raises(ValueError):
        gamma_filtration(gw_point("R", trunc=4), kmax=6)


def test_gap_in_gamma_series_is_not_termination():
    # basis (1, x), x^2 = 0, gamma_t(x) = 1 + x t + x t^3: the weight-2
    # gamma-value vanishes but the weight-3 one does not, so F^2 = Zx
    gamma = z_series((1, 1, 0, 1) + (0,) * 13)
    m = RingModel(
        "gap", GroupPresentation((0, 0), ("one", "x")), (1, 0),
        {(0, 0): (1, 0), (0, 1): (0, 1)}, (1, 0),
        [[(1, 0)], [(0,) + r for r in gamma.substitute_alternating().rows()[1:]]],
    )
    assert validate_model(m).ok
    x = m.basis_element(1)
    assert [gamma_k(x, i) for i in (1, 2, 3)] == [x, m.zero_element, x]
    f = gamma_filtration(m, kmax=2)
    assert f.exact
    assert f.pieces[2] == span(m, (0, 1))


@pytest.mark.parametrize(
    "gamma,exact,cap",
    [
        # gamma_t(x) = 1 + x t + x t^6: certified cap 2 + 6 - 1 = 7
        ((1, 1, 0, 0, 0, 0, 1), True, 7),
        # gamma_t(x) = 1 + x t + x t^6 + x t^8: certified cap 9 > trunc 8
        ((1, 1, 0, 0, 0, 0, 1, 0, 1), False, 8),
    ],
)
def test_piece_needs_products_above_kmax(gamma, exact, cap):
    # basis (1, x), x^2 = 0, at trunc 8: F^2 = Zx only through the weight-6
    # gamma-value, so pieces built from the products of weight at most kmax
    # would read F^2 = 0
    series = z_series(gamma + (0,) * (9 - len(gamma)))
    m = RingModel(
        "late", GroupPresentation((0, 0), ("one", "x")), (1, 0),
        {(0, 0): (1, 0), (0, 1): (0, 1)}, (1, 0),
        [[(1, 0)], [(0,) + r for r in series.substitute_alternating().rows()[1:]]],
        trunc=8,
    )
    assert validate_model(m).ok
    f = gamma_filtration(m, kmax=2)
    assert f.exact == exact
    assert f.weight_cap == cap
    assert len(f.warnings) == (0 if exact else 1)
    assert f.pieces[2] == span(m, (0, 1))


@pytest.mark.parametrize(
    "build", [lambda: trivial_model(40), lambda: fresh(gw_surface_cxp1)(12)],
    ids=["trivial40", "surface12"],
)
def test_filtration_work_bound(monkeypatch, build):
    # a deterministic guard on the product table: each distinct gamma-value
    # meets each distinct span once, and each product reduces once, through
    # GroupPresentation.reduce; one product per (gamma-value, span column)
    # pair of every weight would exceed the bound on both models
    m = build()
    assert validate_model(m).ok
    reduce = GroupPresentation.reduce
    calls = [0]

    def counted(self, coeffs):
        calls[0] += 1
        return reduce(self, coeffs)

    monkeypatch.setattr(GroupPresentation, "reduce", counted)
    gamma_filtration(m, kmax=8)
    assert 0 < calls[0] <= 10_000


def test_heavy_values_meet_no_f1_columns(monkeypatch):
    # F^k takes the products g * F^(k-i) of the values g of weight i < k
    # only, and none with F^1 for k >= 3: g * F^1 for i >= k - 1 >= 2 lies
    # in v * F^(k-1) for the values v of weight one (filtration module
    # docstring).  On P^12 over R at trunc 20, kmax 8, the dots of _times
    # went 1,161 -> 986 when i >= k was left out, and 986 -> 769 with
    # i = k - 1 >= 2
    from gwgamma import filtration
    from gwgamma.lambdaring import RingModel

    m = fresh(gw_projective)("R", 12, trunc=20)
    inside, dots = [False], [0]
    times, dot = filtration._times, RingModel.dot

    def counted_times(*args):
        inside[0] = True
        try:
            return times(*args)
        finally:
            inside[0] = False

    def counted_dot(self, xs, ys):
        dots[0] += inside[0]
        return dot(self, xs, ys)

    monkeypatch.setattr(filtration, "_times", counted_times)
    monkeypatch.setattr(RingModel, "dot", counted_dot)
    assert gamma_filtration(m, kmax=8).exact
    assert 0 < dots[0] <= 769


def test_filtration_builds_no_f1_subgroup(monkeypatch):
    # the generators of F^1 come from the kernel basis of the augmentation;
    # spanning them as a subgroup, which the run never reads, cost one more
    # HNF (4 calls at kmax 1 on the point).  F^0, the whole group, is the
    # identity HNF, built without a call, and each of F^1..F^kmax is one HNF
    from gwgamma import abelian

    calls = []
    hnf = abelian.hnf_columns
    monkeypatch.setattr(
        abelian, "hnf_columns", lambda *args: calls.append(args) or hnf(*args)
    )
    gamma_filtration(fresh(gw_point)("C"), kmax=1)
    assert len(calls) == 1


@pytest.mark.parametrize("orders", [(4,), (2, 2), (2, 2, 2), (2, 4)])
def test_filtration_makes_no_membership_test(monkeypatch, orders):
    # F^kmax is closed under the gamma-values by construction, so no run
    # multiplies them into it and tests each product with Subgroup.contains
    from gwgamma.abelian import Subgroup

    m = group_ring.__wrapped__(orders)
    calls = []
    contains = Subgroup.contains
    monkeypatch.setattr(
        Subgroup, "contains", lambda *args: calls.append(args) or contains(*args)
    )
    assert gamma_filtration(m, kmax=4).exact
    assert calls == []


@pytest.mark.parametrize("build,kmax,hnfs", [
    (lambda: fresh(gw_surface_cxp1)(2), 5, 4),
    (lambda: fresh(gw_projective)("R", 4), 8, 8),
    (lambda: fresh(gw_projective)("C", 12), 8, 8),
    (lambda: fresh(gw_projective)("C", 3), 8, 3),
], ids=["surface2", "P4R", "P12C", "P3C"])
def test_filtration_makes_one_hnf_per_piece(monkeypatch, build, kmax, hnfs):
    # F^k is one span of the gamma-values of weight >= k and the products
    # with the lower pieces, with no per-weight span and no sum, on a result
    # that is not exact (P^12, truncated) too: one HNF per piece up to the
    # first zero piece, none above it, since the pieces nest
    from gwgamma import abelian

    m = build()
    calls = []
    hnf = abelian.hnf_columns
    monkeypatch.setattr(
        abelian, "hnf_columns", lambda *args: calls.append(args) or hnf(*args)
    )
    f = gamma_filtration(m, kmax=kmax)
    first_zero = next((k for k, p in enumerate(f.pieces) if p.is_zero), kmax)
    assert len(calls) == hnfs == first_zero


def test_witt_quotient_makes_one_smith_form(monkeypatch):
    from gwgamma import abelian

    calls = []
    snf = abelian.smith_normal_form
    monkeypatch.setattr(
        abelian, "smith_normal_form", lambda rows: calls.append(rows) or snf(rows)
    )
    for build, arg in ((gw_point, "R"), (gw_punctured_a5, 3), (gw_surface_cxp1, 2)):
        m = fresh(build)(arg)
        calls.clear()
        witt_quotient(m)
        assert len(calls) == 1
