"""Differential test of the integer-vector arithmetic core.

The reference below is the earlier arithmetic: the ring-element product
(once ``RingModel.multiply``) built a ``GroupElement`` for every nonzero
basis pair from a table of ``GroupElement`` products and reduced after every
addition, and ``TruncSeries`` chained ring-element products and sums one
term at a time.
It lives here only as an oracle, on ring-element coefficients that
``series_of`` folds into a series and ``elements_of`` reads back out: the
one helper pair every oracle of the tests uses to cross between a series
and ring elements.  ``oracle_arithmetic()`` swaps it in for
the duration of a ``with`` block; models constructed inside the block also
carry the old product table, so the oracle never reads the sparse rows.

With structure constants that treat the unit as neutral, the earlier
``pow`` (binary exponentiation, ``oracle_pow``, also the reference of
``test_pow_oracle``) and the earlier ``lambda_total`` (which started from
the unit series) give the same series as the current ones on every drawn
model that ``is_ring``; without such a unit they need not, so those
comparisons draw a neutral unit.  On a drawn
model that is no ring no bracketing of S * ... * S is canonical, and
``pow`` must equal ``binomial_pow``, the sum of C(e, k) T^k, T = S - 1,
with T^k the product T * T^(k-1) of the oracle's series.

``inverse`` is ``pow(-1)``, the same binomial sum.  The earlier inverse,
forward substitution, stays here as ``oracle_inverse``: on a ring the
inverse is unique, so on every drawn model that ``is_ring`` and on every
builtin basis series the two must agree and S * S^-1 must be 1; on a drawn
model that is no ring the inverse must equal ``binomial_pow(s, -1)``.
"""

import contextlib
import inspect
from math import comb, gcd

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import GroupPresentation
from gwgamma.lambdaring import RingElement, RingModel, _checks, lambda_total
from gwgamma.models import BUILTINS
from gwgamma.series import TruncSeries
from test_filtration_oracle import CLI_BUILTINS, uncached
from test_series import binomial, z_series


_current_init = RingModel.__init__
_current_mul = RingElement.__mul__


def _oracle_init(self, *args, **kwargs):
    _current_init(self, *args, **kwargs)
    bound = inspect.signature(_current_init).bind(self, *args, **kwargs)
    group = bound.arguments["group"]
    table = {}
    for (i, j), coeffs in bound.arguments["mul"].items():
        key = (i, j) if i <= j else (j, i)
        table[key] = group.element(coeffs)
    self.mul_table = table


def _basis_product(self, i, j):
    key = (i, j) if i <= j else (j, i)
    got = self.mul_table.get(key)
    return got if got is not None else self.group.zero()


def oracle_multiply(self, x, y):
    acc = self.group.zero()
    for i, xi in enumerate(x.coeffs):
        if not xi:
            continue
        for j, yj in enumerate(y.coeffs):
            if not yj:
                continue
            acc = acc + (xi * yj) * _basis_product(self, i, j)
    return acc


def oracle_ring_mul(self, other):
    """``RingElement.__mul__`` with the ring product from ``oracle_multiply``."""
    if isinstance(other, RingElement):
        self._check(other)
        return RingElement(self.model, oracle_multiply(self.model, self.value, other.value))
    return _current_mul(self, other)


def series_of(elements, order=None):
    """The series with these ring elements as its coefficients c_0, c_1, ...,
    cut or padded to the order, by default len(elements) - 1."""
    order = len(elements) - 1 if order is None else order
    return TruncSeries(elements[0].model, [c.value.coeffs for c in elements], order)


def elements_of(s):
    """The coefficients c_0..c_N of the series as ring elements."""
    return tuple(s.model.element(r) for r in s.rows())


def oracle_series_mul(self, other):
    self._check(other)
    n = self.order
    a, b = elements_of(self), elements_of(other)
    out = []
    for k in range(n + 1):
        acc = a[0] * b[k]
        for i in range(1, k + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return series_of(out)


def oracle_inverse(self):
    a = elements_of(self)
    if a[0] != self.model.unit_element:
        raise ValueError("series with non-unit constant term")
    n = self.order
    out = [a[0]]
    for k in range(1, n + 1):
        acc = a[1] * out[k - 1]
        for i in range(2, k + 1):
            acc = acc + a[i] * out[k - i]
        out.append(-acc)
    return series_of(out)


def oracle_pow(s, e):
    """The earlier pow: binary exponentiation of the series, or of its
    ``oracle_inverse`` for a negative exponent, with the series products
    that are in force (the oracle's own under ``oracle_arithmetic``)."""
    one = s.model.unit_element
    if elements_of(s)[0] != one:
        raise ValueError("series with non-unit constant term")
    base = s if e >= 0 else oracle_inverse(s)
    e = abs(e)
    out = None
    while e:
        if e & 1:
            out = base if out is None else out * base
        e >>= 1
        if e:
            base = base * base
    return series_of([one], s.order) if out is None else out


def binomial_pow(s, e):
    """S^e as the sum of C(e, k) T^k for k up to min(e, N), or N when e < 0,
    with T = S - 1 and T^k = T * T^(k-1)."""
    zero = s.model.zero_element
    coeffs = elements_of(s)
    t = series_of([zero, *coeffs[1:]])
    out = list(coeffs[:1]) + [zero] * s.order
    power = t
    for k in range(1, (min(e, s.order) if e >= 0 else s.order) + 1):
        c = (-1) ** k * comb(k - e - 1, k) if e < 0 else comb(e, k)
        out = [a + c * b for a, b in zip(out, elements_of(power))]
        power = t * power
    return series_of(out)


def is_ring(m):
    """Whether the structure constants make a commutative ring: the unit is
    neutral, each torsion order kills the products of its basis element,
    and each basis triple has one product under all three bracketings, as
    the cases of ``validate_model``'s checks say (a torsion element's rank
    is no matter of the ring)."""
    checks = dict(_checks(m))
    return (m._unit_neutral
            and not any(c.startswith("order ") for c in checks["products respect torsion orders"])
            and not any(True for _ in checks["multiplication associative on basis"]))


def oracle_substitute(self, sign):
    """t -> t/(1 - sign t), summed one ring-element term at a time."""
    c = elements_of(self)
    out = [c[0]]
    for k in range(1, self.order + 1):
        acc = c[1] * (sign ** (k - 1) * comb(k - 1, k - 1))
        for i in range(2, k + 1):
            acc = acc + (sign ** (k - i) * comb(k - 1, k - i)) * c[i]
        out.append(acc)
    return series_of(out)


def oracle_lambda_total(x, order, power):
    m = x.model
    out = series_of([m.unit_element], order)
    for i, c in enumerate(x.value.coeffs):
        if c:
            out = out * power(m.basis_lambda_series(i, order), c)
    return out


ORACLE = {
    (RingModel, "__init__"): _oracle_init,
    (RingElement, "__mul__"): oracle_ring_mul,
    (TruncSeries, "__mul__"): oracle_series_mul,
    (TruncSeries, "inverse"): oracle_inverse,
    (TruncSeries, "pow"): oracle_pow,
    (TruncSeries, "substitute_geometric"): lambda self: oracle_substitute(self, 1),
    (TruncSeries, "substitute_alternating"): lambda self: oracle_substitute(self, -1),
}


@contextlib.contextmanager
def oracle_arithmetic():
    saved = {key: key[0].__dict__[key[1]] for key in ORACLE}
    try:
        for (cls, name), fn in ORACLE.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)


# ---------------------------------------------------------------- drawn models

ENTRY = st.integers(-7, 7)


@st.composite
def ring_models(draw, neutral_unit, non_ring=False):
    """Z (the unit's factor) plus up to three free or torsion factors, with
    symmetric structure constants drawn at random (absent pairs are zero)
    and random basis lambda-series.  With ``non_ring`` there are at least
    two factors and b1*b1 = 0, b1*b2 = b2: then (b1*b1)*b2 = 0 differs from
    b1*(b1*b2) = b2, so every draw fails ``is_ring`` and none is rejected."""
    factors = st.lists(st.sampled_from([0, 2, 3, 4]), min_size=2 * non_ring, max_size=3)
    orders = (0,) + tuple(draw(factors))
    rank = len(orders)
    vec = st.lists(ENTRY, min_size=rank, max_size=rank).map(tuple)
    mul = {}
    for i in range(rank):
        for j in range(i, rank):
            if i == 0 and neutral_unit:
                mul[(0, j)] = tuple(int(t == j) for t in range(rank))
            elif non_ring and (i, j) in ((1, 1), (1, 2)):
                mul[(i, j)] = tuple(int(t == j == 2) for t in range(rank))
            elif draw(st.booleans()):
                # either orientation of the pair names the same product
                mul[(i, j) if draw(st.booleans()) else (j, i)] = draw(vec)
    lam = [[tuple(int(t == i) for t in range(rank))] + draw(st.lists(vec, max_size=4))
           for i in range(rank)]
    group = GroupPresentation(orders, tuple("b%d" % i for i in range(rank)))
    unit = tuple(int(t == 0) for t in range(rank))
    with oracle_arithmetic():
        return RingModel("drawn", group, unit, mul, (1,) * rank, lam, trunc=6)


@st.composite
def augmented_ring_models(draw):
    """Models the gamma filtration accepts: Z (the unit's factor) plus up to
    three free or torsion factors, as in ``ring_models`` with a neutral
    unit, and

    * an augmentation d, zero on torsion, whose kernel the c_i = b_i - d(b_i)
      span;
    * products c_i c_j drawn in that kernel and killed by the order of each
      torsion factor among b_i, b_j, so that d is multiplicative and torsion
      kills its products;
    * lambda_t(b_i) = (1 + t)^d(b_i) lambda_t(c_i), with gamma_t(c_i) = 1 +
      c_i t + up to four drawn degrees in the kernel, so that
      d(lambda^k b_i) = C(d(b_i), k).

    When ``nilpotent`` is drawn, c_i c_j has no b_t with 1 <= t <= max(i, j)
    and gamma^k(c_i) no b_t with 1 <= t <= i, so F^1 is a nilpotent ideal
    and the filtration does not stop at F^1."""
    orders = (0,) + tuple(draw(st.lists(st.sampled_from([0, 2, 3, 4]), max_size=3)))
    rank, trunc = len(orders), 6
    aug = (1,) + tuple(0 if o else draw(st.integers(-1, 2)) for o in orders[1:])
    nilpotent = draw(st.booleans())
    e = [tuple(int(t == i) for t in range(rank)) for i in range(rank)]
    zero = (0,) * rank

    def combine(*terms):
        return tuple(sum(a * v[t] for a, v in terms) for t in range(rank))

    def kernel_vector(above, kill=0):
        # free coordinates vanish when kill is set, torsion ones are
        # multiples of o_t / gcd(o_t, kill); the unit coordinate sets rank 0
        v = [0] + draw(st.lists(ENTRY, min_size=rank - 1, max_size=rank - 1))
        for t, o in enumerate(orders):
            if nilpotent and t <= above or kill and not o:
                v[t] = 0
            elif kill:
                v[t] *= o // gcd(o, kill)
        v[0] = -sum(a * c for a, c in zip(aug, v))
        return tuple(v)

    mul = {(0, j): e[j] for j in range(rank)}
    for i in range(1, rank):
        for j in range(i, rank):
            cc = kernel_vector(j, gcd(orders[i], orders[j])) if draw(st.booleans()) else zero
            mul[(i, j)] = combine((1, cc), (aug[i], e[j]), (aug[j], e[i]),
                                  (-aug[i] * aug[j], e[0]))
    lam = [[e[0]]]
    for i in range(1, rank):
        gamma = [combine((1, e[i]), (-aug[i], e[0]))]
        gamma += [kernel_vector(i) for _ in range(draw(st.integers(0, 4)))]
        # lambda^k(c) = sum of (-1)^(k-s) C(k-1, k-s) gamma^s(c), lambda^0(c) = 1
        lam_c = [e[0]] + [
            combine(*(((-1) ** (k - s) * comb(k - 1, k - s), g)
                      for s, g in enumerate(gamma[:k], 1)))
            for k in range(1, trunc + 1)
        ]
        lam.append([
            combine(*((binomial(aug[i], k - j), lam_c[j]) for j in range(k + 1)))
            for k in range(1, trunc + 1)
        ])
    group = GroupPresentation(orders, tuple("b%d" % i for i in range(rank)))
    with oracle_arithmetic():
        return RingModel("drawn", group, e[0], mul, aug, lam, trunc=trunc)


@st.composite
def model_and_elements(draw, neutral_unit=False, count=2):
    m = draw(ring_models(neutral_unit))
    vec = st.lists(st.integers(-20, 20), min_size=m.group.rank, max_size=m.group.rank)
    return m, [m.element(draw(vec)) for _ in range(count)]


@st.composite
def model_and_series(draw, neutral_unit=False, count=2):
    m = draw(ring_models(neutral_unit))
    order = draw(st.integers(0, 6))
    vec = st.lists(st.integers(-9, 9), min_size=m.group.rank, max_size=m.group.rank)
    out = [
        series_of([m.unit_element] + [m.element(draw(vec)) for _ in range(order)])
        for _ in range(count)
    ]
    return m, out


ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


@ORACLE_SETTINGS
@given(model_and_elements())
def test_multiply_matches_oracle(drawn):
    m, (x, y) = drawn
    got = (x * y).value
    with oracle_arithmetic():
        assert got == (x * y).value


def oracle_dot(m, xs, ys):
    """The dense product x*y of the representatives as given, from the
    per-pair table, reduced once."""
    rank = m.group.rank
    acc = [0] * rank
    x, y = [0] * rank, [0] * rank
    for v, entries in ((x, xs), (y, ys)):
        for i, c in entries:
            v[i] += c
    for i in range(rank):
        for j in range(rank):
            for k, c in enumerate(_basis_product(m, i, j).coeffs):
                acc[k] += x[i] * y[j] * c
    return m.group.element(acc).coeffs


@st.composite
def model_and_pair(draw):
    """A drawn model with a pair of sparse entry lists; a list may be empty,
    and its coefficients are not reduced mod the torsion orders."""
    m = draw(ring_models(draw(st.booleans())))
    rank = m.group.rank
    vec = st.lists(st.integers(-20, 20) | st.just(0), min_size=rank, max_size=rank)
    entries = vec.map(lambda v: [(i, c) for i, c in enumerate(v) if c])
    return m, draw(entries), draw(entries)


@ORACLE_SETTINGS
@given(model_and_pair())
def test_dot_matches_dense_sum_of_products(drawn):
    m, xs, ys = drawn
    got = m.dot(xs, ys)
    if not any(m.products[i][j] for i, _ in xs for j, _ in ys):
        # the pair meets no nonempty structure-constant row: the zero path
        assert got == (0,) * m.group.rank
    assert got == oracle_dot(m, xs, ys)


def test_dot_zero_path():
    # Z + Z/2 x with x*x = 0 (the row of x*x is empty): empty entry lists
    # and pairs that meet only the empty row give zero
    with oracle_arithmetic():
        m = RingModel("Z+Z/2", GroupPresentation((0, 2), ("one", "x")), (1, 0),
                      {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 2)}, (1, 0),
                      [[(1, 0)], [(0, 1)]])
    x = [(1, 3)]
    for xs, ys in (([], []), ([], x), (x, []), (x, x), (x, [(1, 1)])):
        assert m.dot(xs, ys) == (0, 0) == oracle_dot(m, xs, ys)
    assert m.dot([(0, 2)], x) == (0, 0)  # 6x mod 2, not the zero path
    assert m.dot([(0, 1)], x) == (0, 1)


@ORACLE_SETTINGS
@given(model_and_series())
def test_series_product_and_inverse_match_oracle(drawn):
    m, (s, t) = drawn
    prod, inv = s * t, s.inverse()
    with oracle_arithmetic():
        assert prod == s * t
        check_inverse(m, s, inv)


def check_inverse(m, s, inv):
    """On a ring, inv is the forward substitution's inverse and S * inv = 1;
    on a model that is no ring, the binomial sum.  Run under the oracle."""
    if is_ring(m):
        assert inv == oracle_inverse(s)
        assert s * inv == series_of([m.unit_element], s.order)
    else:
        assert inv == binomial_pow(s, -1)


@ORACLE_SETTINGS
@given(model_and_series(count=1))
def test_substitutions_match_oracle(drawn):
    _, (s,) = drawn
    geo, alt = s.substitute_geometric(), s.substitute_alternating()
    with oracle_arithmetic():
        assert geo == s.substitute_geometric()
        assert alt == s.substitute_alternating()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(model_and_elements(count=1))
def test_substitutions_with_zero_tails_match_oracle(drawn):
    # the drawn series above are mostly dense; here 1 + x t and 1 + x t - x t^2,
    # the builtin gamma-polynomials, end in zeros, and the unit series and a
    # coordinate of the unit that x lacks are nonzero only in degree 0
    m, (x,) = drawn
    for order in (1, 2, 16, 64):
        for coeffs in ([x], [x, -x], []):
            s = series_of([m.unit_element, *coeffs], order)
            geo, alt = s.substitute_geometric(), s.substitute_alternating()
            with oracle_arithmetic():
                assert geo == s.substitute_geometric()
                assert alt == s.substitute_alternating()


@ORACLE_SETTINGS
@given(model_and_series(neutral_unit=True, count=1))
def test_series_pow_matches_oracle(drawn):
    # with a neutral unit about a third of the draws are rings; the draws of
    # the product and inverse test above, whose unit need not be neutral,
    # seldom are
    m, (s,) = drawn
    got = [s.pow(e) for e in range(-3, 6)]
    inv = s.inverse()
    power = oracle_pow if is_ring(m) else binomial_pow
    with oracle_arithmetic():
        assert got == [power(s, e) for e in range(-3, 6)]
        check_inverse(m, s, inv)


@ORACLE_SETTINGS
@given(model_and_elements(neutral_unit=True, count=1))
def test_lambda_total_matches_oracle(drawn):
    m, (x,) = drawn
    got = lambda_total(x, m.trunc)
    power = oracle_pow if is_ring(m) else binomial_pow
    with oracle_arithmetic():
        assert got == oracle_lambda_total(x, m.trunc, power)


def test_integer_series_match_oracle():
    # Z as the complex point, built with the oracle's per-pair table
    with oracle_arithmetic():
        one = BUILTINS["gw_point"].__wrapped__("C").unit_element
    s = z_series((1, 3, -2, 0, 5, -1), one)
    t = z_series((2, -1, 4, 1, 0, 7), one)
    got = (s * t, s.inverse(), [s.pow(e) for e in range(-3, 6)],
           t.substitute_geometric(), t.substitute_alternating())
    with oracle_arithmetic():
        assert got == (s * t, s.inverse(), [s.pow(e) for e in range(-3, 6)],
                       t.substitute_geometric(), t.substitute_alternating())


# ---------------------------------------------------------------- builtins

@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_basis_series_inverses_match_oracle(name, kwargs):
    m = BUILTINS[name](**kwargs)
    one = series_of([m.unit_element], m.trunc)
    for i in range(m.group.rank):
        s = m.basis_lambda_series(i, m.trunc)
        inv = s.inverse()
        assert inv == oracle_inverse(s), i
        assert s * inv == one, i


@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_lambda_series_match_oracle_build(name, kwargs):
    # the uncached build: a shared model would not be the oracle's
    with oracle_arithmetic():
        expected = uncached(BUILTINS[name])(**kwargs)
    assert hasattr(expected, "mul_table")  # built by the oracle
    assert BUILTINS[name](**kwargs).lambda_on_basis == expected.lambda_on_basis
