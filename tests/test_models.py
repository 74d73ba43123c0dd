"""Checks for the builtin ring models.

Frozen values below were derived by hand from the defining series quotients,
e.g. lambda_t(a) = (1 + (a+2)t + t^2) / (1 + 2t + t^2) over the complex
base, whose expansion is linear in a with coefficients (-1)^(k-1) k.
"""

import math
import random
from itertools import product

import pytest

from gwgamma import models, series
from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import (
    DEFAULT_TRUNCATION,
    RingModel,
    gamma_k,
    gamma_total,
    lambda_k,
    lambda_total,
    psi_k,
    validate_model,
    verify_special_pair,
)
from gwgamma.models import (
    BUILTINS,
    gw_point,
    gw_projective,
    gw_punctured_a5,
    gw_punctured_line,
    gw_surface_cxp1,
    line_elements,
    twisted_hyperbolic_classes,
)
from gwgamma.series import TruncSeries
from test_arith_oracle import elements_of, series_of
from test_filtration_oracle import CLI_BUILTINS, uncached
from test_series import binomial


def torsion_elements(group):
    """All elements of the finite torsion subgroup (free coordinates zero)."""
    for coeffs in product(*(range(o) if o else range(1) for o in group.orders)):
        yield group.element(coeffs)


def torsion_order(group):
    return math.prod(o for o in group.orders if o)


SAMPLE_MODELS = [
    gw_point("C"),
    gw_point("R"),
    gw_projective("C", 2),
    gw_projective("C", 3),
    gw_projective("C", 4),
    gw_projective("C", 5),
    gw_projective("R", 2),
    gw_projective("R", 5),
    gw_punctured_line(),
    gw_punctured_a5(3),
    gw_punctured_a5(4),
    gw_surface_cxp1(1),
    gw_surface_cxp1(2),
]


def named(model, label):
    return model.basis_element(list(model.group.names).index(label))


def alternating_h_sum(model, r):
    """sum_j (-1)^j C(r+1, rho-j) a_j, the Euler-type combination for odd r."""
    rho = (r + 1) // 2
    a_cls = twisted_hyperbolic_classes(model, rho)
    return sum(
        ((-1) ** j * math.comb(r + 1, rho - j) * a_cls[j] for j in range(1, rho + 1)),
        model.zero_element,
    )


def assert_twisted_classes(model, r):
    """a_1..a_(rho+2) of the projective model of P^r, from the recursion, are
    supported on the powers of a and have rank zero; a_k = a^k + lower powers
    of a for k up to the top power, as the builder's recursion for
    gamma_t(a^k) requires; for odd r the signed binomial sum of the a_j is
    (-a)^rho."""
    rho = (r + 1) // 2
    off_a = [i for i, n in enumerate(model.group.names) if not n.startswith("a")]
    powers = [i for i, n in enumerate(model.group.names) if n.startswith("a")]
    for k, x in enumerate(twisted_hyperbolic_classes(model, rho + 2)[1:], 1):
        assert not any(x.value.coeffs[i] for i in off_a), (model.name, k)
        assert model.augmentation(x.value) == 0, (model.name, k)
        if k <= len(powers):
            assert x.value.coeffs[powers[k - 1]] == 1, (model.name, k)
            assert not any(x.value.coeffs[i] for i in powers[k:]), (model.name, k)
    if r % 2:
        assert alternating_h_sum(model, r) == (-named(model, "a")) ** rho, model.name


def test_all_builtins_validate():
    for m in SAMPLE_MODELS:
        report = validate_model(m)
        assert report.ok, (m.name, report.first_failure)


def test_projective_group_shapes():
    # ceil(r/2) powers, the last one dropped for r = 3 mod 4 and of order
    # two for r = 1 mod 4
    shapes = {
        1: (0, 2),
        2: (0, 0),
        3: (0, 0),
        4: (0, 0, 0),
        5: (0, 0, 0, 2),
        6: (0, 0, 0, 0),
        7: (0, 0, 0, 0),
        8: (0, 0, 0, 0, 0),
        9: (0, 0, 0, 0, 0, 2),
    }
    for r, expected in shapes.items():
        assert gw_projective("C", r).group.orders == expected
        mr = gw_projective("R", r)
        assert mr.group.orders == (0,) + expected


def test_projective_lambda_of_a_frozen():
    # over C the series is linear in a: lambda^k(a) = (-1)^(k-1) k a
    m = gw_projective("C", 5)
    a = named(m, "a")
    for k in range(1, 9):
        expected = (k if k % 2 else -k) * a
        assert lambda_k(a, k) == expected


def test_projective_gamma_of_a_terminates():
    for base in ("C", "R"):
        m = gw_projective(base, 4)
        a = named(m, "a")
        g = elements_of(gamma_total(a))
        assert g[1] == a
        assert g[2] == -a
        assert all(c.is_zero for c in g[3:])


def test_projective_gamma_of_a_squared_frozen():
    # gamma_t(a^2) = gamma_t(a_2) gamma_t(a_1)^(-4) with a_2 = a^2 + 4a;
    # in P^5 the order-two a^3 kills the odd-degree tail
    m = gw_projective("C", 5)
    a2 = named(m, "a2")
    g = elements_of(gamma_total(a2))
    expected = [1, 1, -7, 12, -6]
    for k in range(1, 5):
        assert g[k] == expected[k] * a2
    assert all(c.is_zero for c in g[5:])


def test_projective_power_relations():
    m = gw_projective("C", 7)
    a = named(m, "a")
    assert a * a == named(m, "a2")
    assert a * named(m, "a2") == named(m, "a3")
    assert (a ** 4).is_zero
    m5 = gw_projective("C", 5)
    a5 = named(m5, "a")
    cube = a5 ** 3
    assert cube == named(m5, "a3")
    assert (2 * cube).is_zero and not cube.is_zero


# the builders read the rank-zero series off gamma-polynomials; the tests
# below recompute them as the splitting-principle quotients, over each
# family's CLI range at its default truncation and at short and long ones
QUOTIENT_TRUNCATIONS = (DEFAULT_TRUNCATION, 1, 2, 20)


def _quotient(num, den, order):
    one = num[0].model.unit_element
    return series_of([one, *num], order) * series_of([one, *den], order).inverse()


def test_projective_series_match_recursion():
    # the stored series for powers of a must reproduce the defining quotient
    # (1 + (a_k + H(1)) t + e t^2) / (1 + H(1) t + e t^2) for the twisted
    # classes a_k = H(O(k)) - H(1), e the class of <-1>
    cases = [kw for name, kw in CLI_BUILTINS if name == "gw_projective"]
    assert len(cases) == 24
    for kw in cases:
        for trunc in QUOTIENT_TRUNCATIONS:
            m = gw_projective(trunc=trunc, **kw)
            one = m.unit_element
            e = named(m, "L") if kw["base"] == "R" else one
            h1 = one + e
            top = len([n for n in m.group.names if n.startswith("a")])
            a_cls = twisted_hyperbolic_classes(m, top)
            for k in range(1, top + 1):
                assert lambda_total(a_cls[k], trunc) == _quotient(
                    [a_cls[k] + h1, e], [h1, e], trunc), (m.name, trunc, k)


def test_line_minus_one_series_match_quotient():
    # lambda_t(l - 1) = (1 + (x + 1) t) / (1 + t) for x = l - 1, l a line
    # class: the punctured line's eps and every surface's a_j
    cases = [(name, kw) for name, kw in CLI_BUILTINS
             if name in ("gw_punctured_line", "gw_surface_cxp1")]
    assert len(cases) == 14
    for name, kw in cases:
        for trunc in QUOTIENT_TRUNCATIONS:
            m = BUILTINS[name](trunc=trunc, **kw)
            one = m.unit_element
            for label in m.group.names:
                if label == "eps" or label.startswith("a"):
                    x = named(m, label)
                    assert lambda_total(x, trunc) == _quotient([x + one], [one], trunc), (
                        m.name, trunc, label)


def test_projective_real_rank_two_class():
    # e = a + 1 + L has the exact quadratic series 1 + e t + L t^2
    m = gw_projective("R", 2)
    e = named(m, "a") + m.unit_element + named(m, "L")
    lam = elements_of(lambda_total(e))
    assert lam[1] == e
    assert lam[2] == named(m, "L")
    assert all(c.is_zero for c in lam[3:])
    assert psi_k(e, 2) == 2 * m.unit_element + 4 * named(m, "a")


def test_h_sum_matches_signed_power():
    for r in (3, 5):
        m = gw_projective("C", r)
        rho = (r + 1) // 2
        a = named(m, "a")
        assert alternating_h_sum(m, r) == (-a) ** rho


def test_punctured_line_structure():
    m = gw_punctured_line()
    L, eps = named(m, "L"), named(m, "eps")
    assert eps * eps == -2 * eps
    assert L * eps == -eps
    for k in range(1, 9):
        assert lambda_k(eps, k) == (eps if k % 2 else -eps)
    g = elements_of(gamma_total(eps))
    assert g[1] == eps and all(c.is_zero for c in g[2:])


def punctured_gamma_coefficients(f: int, count: int) -> list[int]:
    """Exact integers C(2^(f-1), i) * 2^(i-f) for i = 1..count."""
    if f < 2:
        raise ValueError("f must be at least 2")
    out = []
    for i in range(1, count + 1):
        num = math.comb(2 ** (f - 1), i) * 2 ** i
        den = 2 ** f
        if num % den:
            raise ArithmeticError("gamma coefficient is not an integer")
        out.append(num // den)
    return out


def test_punctured_space_gamma_coefficients_exact():
    # gw_punctured_a5 hands over these coefficients mod 2, 1 + eps t + eps t^2,
    # as data: they are 1, odd and then even at all 2^(f-1) of them, f = 2..8
    assert punctured_gamma_coefficients(3, 4) == [1, 3, 4, 2]
    assert punctured_gamma_coefficients(4, 4) == [1, 7, 28, 70]
    assert punctured_gamma_coefficients(5, 4) == [1, 15, 140, 910]
    for f in range(2, 9):
        c = punctured_gamma_coefficients(f, 2 ** (f - 1))
        assert c[0] == 1 and c[1] % 2 == 1
        assert all(v % 2 == 0 for v in c[2:])
        m = gw_punctured_a5(f)
        eps = named(m, "eps")
        g = elements_of(gamma_total(eps))[1:]
        assert list(g) == [(v % 2) * eps for v in (c + [0] * len(g))[:len(g)]], f


def test_punctured_space_series():
    m = gw_punctured_a5(3)
    eps = named(m, "eps")
    assert (eps * eps).is_zero
    g = elements_of(gamma_total(eps))
    assert g[1] == eps and g[2] == eps
    assert all(c.is_zero for c in g[3:])
    for k in range(1, 16):
        assert lambda_k(eps, k) == (eps if k % 2 else m.zero_element)


@pytest.mark.parametrize("f", range(2, 9))
def test_punctured_space_at_truncation_one(f):
    # f = 7 and 8 cut the coefficient count at trunc 1, so the sanity check
    # of the constructor read coeffs[1] of a one-element list (IndexError)
    m = gw_punctured_a5(f, trunc=1)
    assert validate_model(m).ok
    assert m.lambda_on_basis == gw_punctured_a5(3, trunc=1).lambda_on_basis


def test_surface_products():
    m = gw_surface_cxp1(2)
    a1, a2 = named(m, "a1"), named(m, "a2")
    b, c, d0 = named(m, "b"), named(m, "c"), named(m, "d0")
    d1, d2 = named(m, "d1"), named(m, "d2")
    assert a1 * c == d1 + c
    assert a1 * d0 == d1 + c
    assert a1 * d2 == d1 + c
    assert a2 * d1 == d2 + c
    for x in (b, c, d0, d1, d2):
        assert (b * x).is_zero
        assert (d0 * x).is_zero
    assert (a1 * a2).is_zero and (a1 * b).is_zero


def test_surface_series():
    m = gw_surface_cxp1(1)
    a1, b = named(m, "a1"), named(m, "b")
    ga = elements_of(gamma_total(a1))
    assert ga[1] == a1 and all(x.is_zero for x in ga[2:])
    gb = elements_of(gamma_total(b))
    assert gb[1] == b and gb[2] == b
    assert all(x.is_zero for x in gb[3:])
    for k in range(1, 10):
        assert lambda_k(b, k) == (b if k % 2 else m.zero_element)


def test_line_element_groups():
    expected = {
        "gw_point(base=C)": 1,
        "gw_point(base=R)": 2,
        "gw_projective(r=4,base=C)": 1,
        "gw_projective(r=5,base=R)": 2,
        "gw_punctured_line(base=R)": 4,
        "gw_punctured_a5(f=3)": 1,
        "gw_surface_cxp1(s=2)": 4,
    }
    by_name = {m.name: m for m in SAMPLE_MODELS}
    for name, count in expected.items():
        assert len(line_elements(by_name[name])) == count, name


def test_line_elements_of_a_wide_surface():
    # each new element is multiplied by the generating lines only; the
    # closure of gw_surface_cxp1(11) once stopped at a cap of 1,024
    assert len(line_elements(gw_surface_cxp1.__wrapped__(11))) == 2 ** 11


def test_special_identities_on_random_pairs():
    rng = random.Random(46)
    for m in SAMPLE_MODELS:
        rank = m.group.rank
        xs = [
            m.element([rng.randrange(-2, 3) for _ in range(rank)])
            for _ in range(2)
        ]
        report = verify_special_pair(xs[0], xs[1], bound=2)
        assert report.ok, (m.name, report.first_failure)


def test_addition_law_on_random_elements():
    rng = random.Random(47)
    for m in SAMPLE_MODELS:
        rank = m.group.rank
        x = m.element([rng.randrange(-2, 3) for _ in range(rank)])
        y = m.element([rng.randrange(-2, 3) for _ in range(rank)])
        lx, ly = lambda_total(x, 8), lambda_total(y, 8)
        assert lambda_total(x + y, 8) == lx * ly
        for k in range(9):
            acc = m.zero_element
            for i in range(k + 1):
                acc = acc + gamma_k(x, i) * gamma_k(y, k - i)
            assert gamma_k(x + y, k) == acc


def test_two_torsion_cubes_vanish():
    # any two-torsion class has vanishing cube in these models
    for m in SAMPLE_MODELS:
        if torsion_order(m.group) > 4096:
            continue
        for t in torsion_elements(m.group):
            x = m.element(t.coeffs)
            if (2 * x).is_zero:
                assert (x ** 3).is_zero, m.name


def test_builtin_registry():
    assert set(BUILTINS) == {
        "gw_point",
        "gw_point_C",
        "gw_point_R",
        "gw_projective",
        "gw_punctured_line",
        "gw_punctured_a5",
        "gw_surface_cxp1",
    }
    assert BUILTINS["gw_point"]("R").name == "gw_point(base=R)"
    assert BUILTINS["gw_point_R"]().name == "gw_point(base=R)"
    assert BUILTINS["gw_point_C"]().group.orders == (0,)


def test_ak_recursion_reports():
    for base, r in product("CR", range(1, 13)):
        assert_twisted_classes(gw_projective(base, r), r)
    with pytest.raises(ValueError):
        gw_projective("C", 13)


def test_point_binomial_series():
    m = gw_point("C")
    for n in range(-4, 5):
        x = n * m.unit_element
        for k in range(7):
            assert lambda_k(x, k) == binomial(n, k) * m.unit_element


def test_projective_build_work_bound(monkeypatch):
    # a deterministic guard on the arithmetic core: every ring product and
    # inverse coefficient reduces once, through GroupPresentation.reduce;
    # no series of a power a^k is multiplied by the unit series; series
    # powers read one binomial table per series (32,723 dot pairs with
    # binary exponentiation); series products and the powers of T run on
    # coordinate columns, so only inverses and ring-element products call dot
    # (17,754 dot pairs with one dot per product coefficient), an inverse
    # on the nonzero degrees of its series only; the twisted classes share one
    # denominator series, inverted once (11 inverses when each class had its
    # own); a negative power reads the binomial table of its own series,
    # with C(e, k) for e < 0, instead of inverting it first (1,398 dot pairs,
    # 6 inverses and 174 column products when each negative power tabled
    # its inverse); validation reads the basis products off the sparse
    # rows (304 and 217 dot calls, its own ring checks included; they ran
    # in the build when pow chose binary exponentiation off a ring); the
    # twisted classes' series are read off their gamma-series
    # 1 + a_k t - a_k t^2, so the build inverts no series (with the shared
    # denominator: 1 inverse, 21 series products, 116 column products, 348
    # dot pairs and 270 reduce calls; now 15, 110, 5 and 241: the dot pairs
    # are the twisted classes' ring products, 309 when the build ran the
    # ring checks for pow), and no builtin of the CLI range does (37
    # inverses in all when the series were quotients); the powers a^k are
    # multiplied as gamma-polynomials at order 2 top = 12, not as
    # lambda-series at order 20 (column products 110 then, 70 now); the
    # block of its powers is computed once per process, so the bounds hold
    # for a build that starts with none computed
    models._block_gammas.cache_clear()
    reduce = GroupPresentation.reduce
    series_mul = TruncSeries.__mul__
    dot = RingModel.dot
    series_inverse = TruncSeries.inverse
    column_product = series._product
    calls = [0]
    columns = [0]
    inverses = [0]
    products = [0]
    dots = [0]
    orders = set()

    def counted(self, coeffs):
        calls[0] += 1
        return reduce(self, coeffs)

    def counted_mul(self, other):
        products[0] += 1
        return series_mul(self, other)

    def counted_inverse(self):
        # direct inverse() calls; S^-1 inside pow reads the binomial table
        inverses[0] += 1
        return series_inverse(self)

    def counted_product(m, n, a, b):
        columns[0] += 1
        orders.add(n)
        return column_product(m, n, a, b)

    def counted_dot(self, xs, ys):
        dots[0] += 1
        return dot(self, xs, ys)

    monkeypatch.setattr(GroupPresentation, "reduce", counted)
    monkeypatch.setattr(TruncSeries, "__mul__", counted_mul)
    monkeypatch.setattr(TruncSeries, "inverse", counted_inverse)
    monkeypatch.setattr(RingModel, "dot", counted_dot)
    monkeypatch.setattr(series, "_product", counted_product)
    m = gw_projective.__wrapped__("R", 12, trunc=20)
    assert 0 < calls[0] <= 50_000
    assert 0 < products[0] <= 129
    assert 0 < columns[0] <= 75
    assert max(orders) <= 12
    assert inverses[0] == 0
    assert 0 < dots[0] <= 10
    for name, kwargs in CLI_BUILTINS:
        uncached(BUILTINS[name])(**kwargs)
    assert inverses[0] == 0
    for model, before in ((m, 312), (gw_projective.__wrapped__("R", 9, trunc=20), 245)):
        dots[0] = 0
        assert validate_model(model).ok
        assert dots[0] <= before, model.name


@pytest.mark.parametrize("first,second", [
    (("C", 10), ("C", 11)),
    (("R", 10), ("R", 11)),
    (("R", 4), ("C", 4)),
    (("C", 5), ("R", 5)),
], ids=["P11C-after-P10C", "P11R-after-P10R", "C-after-R", "R-after-C"])
def test_projective_block_built_once(monkeypatch, first, second):
    # P^10 and P^11 share the block of a..a^5, and each base the block of
    # its r: a second build reads the block's gamma-rows and does no series
    # arithmetic of its own but the substitution t -> t/(1+t)
    models._block_gammas.cache_clear()
    gw_projective.__wrapped__(*first)
    counts = {"products": 0, "columns": 0, "pows": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(TruncSeries, "__mul__", counted("products", TruncSeries.__mul__))
    monkeypatch.setattr(TruncSeries, "pow", counted("pows", TruncSeries.pow))
    monkeypatch.setattr(series, "_product", counted("columns", series._product))
    gw_projective.__wrapped__(*second)
    assert counts == {"products": 0, "columns": 0, "pows": 0}


def test_inverse_work_bound(monkeypatch):
    # the P^r-over-R quotient denominator 1 + (1 + L) t + L t^2, the oracle's
    # for the twisted classes: its inverse is the binomial sum of its table
    # T^1..T^20, at most 19 column products and no dot (forward substitution
    # made 39 dot pairs, 210 when every lower degree was passed)
    dot = RingModel.dot
    column_product = series._product
    dots = [0]
    columns = [0]

    def counted_dot(self, xs, ys):
        dots[0] += 1
        return dot(self, xs, ys)

    def counted_product(m, n, a, b):
        columns[0] += 1
        return column_product(m, n, a, b)

    m = gw_point("R", trunc=20)
    one, L = m.unit_element, m.basis_element(1)
    den = series_of([one, one + L, L], 20)
    monkeypatch.setattr(RingModel, "dot", counted_dot)
    monkeypatch.setattr(series, "_product", counted_product)
    inv = den.inverse()
    assert dots[0] == 0
    assert 0 < columns[0] <= 19
    monkeypatch.undo()
    assert den * inv == series_of([one], 20)


def test_negative_orders_refused():
    # lambda_k(a, -1) read 15a, the stored series cut from the wrong end,
    # and gamma_k(a, -1) read 0
    m = gw_projective("C", 4)
    a = m.basis_element(1)
    for call in (
        lambda: lambda_total(a, -1),
        lambda: gamma_total(a, -1),
        lambda: lambda_k(a, -1),
        lambda: gamma_k(a, -1),
        lambda: lambda_total(m.zero_element, -1),
    ):
        with pytest.raises(ValueError, match="order must be non-negative"):
            call()
    assert lambda_k(a, 0) == gamma_k(a, 0) == m.unit_element


def test_basis_series_refuses_negative_order():
    # the parent read basis_lambda_series(1, -1) as a series of order 15,
    # the stored series cut from the wrong end
    m = gw_projective("C", 4)
    with pytest.raises(ValueError, match="order must be non-negative"):
        m.basis_lambda_series(1, -1)
    assert m.basis_lambda_series(1, 0).order == 0


def test_series_constructors_refuse_negative_order():
    # an earlier constructor read 1 + a t + a t^2 + a t^3 at order -1 as a
    # series of order 2, and the unit series at order -2 as one of order 0
    m = gw_projective("C", 4)
    one, a = m.unit.coeffs, m.basis_element(1).value.coeffs
    for call in (
        lambda: TruncSeries(m, [one, a, a, a], -1),
        lambda: TruncSeries(m, [one], -2),
    ):
        with pytest.raises(ValueError, match="order must be non-negative"):
            call()
    assert TruncSeries(m, [one], 0).order == 0
    assert TruncSeries(m, [one, a, a, a], 0).rows() == [one]
