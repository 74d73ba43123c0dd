"""The one support module of the tests: every reference, builder and
strategy that more than one test module reads, each defined once.

Pytest does not collect this file, since its name does not match
``test_*.py``, and it defines no test.  No test module imports another:
each imports what it shares from here (``tests/test_suite_guards.py``
checks both).  The references are the slow paths that the engine's fast
ones replaced; each lives here only as an oracle:

* the arithmetic (``oracle_arithmetic``): the ring-element product from a
  per-pair table of group elements, and series products, inverses, powers
  and substitutions one ring-element term at a time;
* the fold of a polynomial (``oracle_evaluate``): the full left fold with
  memoized prefixes;
* the checkers (``oracle_validate``, ``oracle_special_pair``);
* the per-weight spans of the filtration (``assert_pieces_match_oracle``);
* the binomial gamma -> lambda rows of a builder (``oracle_lambda_rows``);
* the dense sparse-group routines (``oracle_project``).

Also here: the builtin ranges (``CLI_BUILTINS``, ``SMALL_BUILTINS``), the
uncached builds (``uncached``, ``fresh``), the drawn models, the rings with
lambda_t(b) = 1 + b t on every basis element (``line_ring`` and the group
rings and projective products built with it), the rings the filtration
refuses, and the loader of the checkout's ``tools/`` and ``bench/`` modules.
"""

import contextlib
import dataclasses
import functools
import importlib.util
import inspect
import math
import os
import sys
import threading
from itertools import combinations, permutations, product
from math import comb, gcd

import pytest

from hypothesis import settings, strategies as st

from gwgamma import abelian, filtration, lambdaring
from gwgamma.abelian import (
    GroupPresentation,
    _entries,
    full_subgroup,
    kernel_basis,
    subgroup_from_generators,
)
from gwgamma.filtration import _gamma_values, gamma_filtration, witt_filtration
from gwgamma.lambdaring import (
    DEFAULT_TRUNCATION,
    CheckResult,
    Report,
    RingElement,
    RingModel,
    _checks,
    _evaluate,
    _special_reports,
    gamma_total,
    lambda_k,
    lambda_total,
)
from gwgamma.models import BUILTINS, gw_point, twisted_hyperbolic_classes
from gwgamma.series import TruncSeries
from gwgamma.symfunc import MultiPoly, compose_universal, product_universal

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """The module at ``path``, relative to the checkout (``tools/mutants.py``,
    ``bench/jobs.py``), loaded without writing a cache file beside it."""
    name = os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, path))
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


JOBS_MODULE = load("bench/jobs.py")

# one derandomized budget for the differential tests of the slow paths
ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------- numbers

def binomial(n, k):
    """C(n, k) for every integer n, 0 for k < 0: the reference for the
    binomial coefficients the series compute themselves, with
    C(n, k) = (-1)^k C(k - n - 1, k) for n < 0."""
    if k < 0:
        return 0
    return comb(n, k) if n >= 0 else (-1) ** k * comb(k - n - 1, k)


def basis_vector(i, rank):
    """The i-th coordinate vector of length rank."""
    return tuple(int(t == i) for t in range(rank))


ONE = gw_point("C").unit_element


def z_series(coeffs, one=ONE):
    """The series with these integer coefficients, over Z with unit ``one``."""
    return TruncSeries(one.model, [tuple(c * u for u in one.value.coeffs) for c in coeffs],
                      len(coeffs) - 1)


def z_coeffs(series):
    """The integer coefficients of a series over Z."""
    return tuple(r[0] for r in series.rows())


def zero_subgroup(pres):
    """The subgroup of relations only: the zero subgroup of the group."""
    return subgroup_from_generators(pres, [])


# ---------------------------------------------------------------- builtins

# every builtin over the parameter range the command line accepts
CLI_BUILTINS = (
    [("gw_point", {"base": b}) for b in "CR"]
    + [("gw_point_C", {}), ("gw_point_R", {}), ("gw_punctured_line", {})]
    + [("gw_projective", {"base": b, "r": r}) for b in "CR" for r in range(1, 13)]
    + [("gw_punctured_a5", {"f": f}) for f in range(2, 9)]
    + [("gw_surface_cxp1", {"s": s}) for s in range(13)]
)
CLI_IDS = ["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS]

# the model-files builtins without the two points: (constructor, CLI flags)
SMALL_BUILTINS = (
    [("gw_projective", ("--base", b, "--r", str(r))) for b in "CR" for r in range(1, 8)]
    + [("gw_surface_cxp1", ("--s", str(s))) for s in range(5)]
    + [("gw_punctured_line", ())]
    + [("gw_punctured_a5", ("--f", str(f))) for f in range(2, 7)]
)


def uncached(build):
    """The uncached build behind an interned constructor, ``__wrapped__``,
    with the arguments a ``functools.partial`` of one binds (``gw_point_C``
    and ``gw_point_R`` bind the base of ``gw_point``); a build that is not
    interned is its own."""
    if isinstance(build, functools.partial):
        return functools.partial(build.func.__wrapped__, *build.args, **build.keywords)
    return getattr(build, "__wrapped__", build)


def fresh(build):
    """``uncached(build)`` on an emptied registry of content records: the
    model it returns derives its checks and its filtration itself, not from
    the record of a live model with equal content (``lambdaring._derived``),
    as long as no other model is looked up before it."""
    def call(*args, **kwargs):
        lambdaring._RECORDS.clear()
        return uncached(build)(*args, **kwargs)

    return call


# ---------------------------------------------------------------- rings

def line_ring(name, orders, mul, aug, trunc=DEFAULT_TRUNCATION, names=None):
    """The model on Z/o_0 x Z/o_1 x ... with these structure constants and
    augmentation, unit b_0 and lambda_t(b) = 1 + b t for every basis element
    b; the basis is named b0, b1, ... unless names are given."""
    rank = len(orders)
    names = tuple("b%d" % i for i in range(rank)) if names is None else names
    return RingModel(name, GroupPresentation(orders, names), basis_vector(0, rank), mul, aug,
                     [[basis_vector(i, rank)] for i in range(rank)], trunc=trunc)


def group_mul(orders):
    """The products of Z[G], G = Z/o_1 x ... x Z/o_n, on the basis of the
    elements of G in lexicographic order: g h is one basis element."""
    elems = list(product(*[range(n) for n in orders]))
    index = {e: i for i, e in enumerate(elems)}
    rank = len(elems)
    return {(i, j): basis_vector(index[tuple((x + y) % n for x, y, n in zip(a, b, orders))], rank)
            for i, a in enumerate(elems) for j, b in enumerate(elems) if i <= j}


@functools.lru_cache(maxsize=None)
def group_ring(orders):
    """Z[G] for G = Z/o_1 x ... x Z/o_n, with lambda_t(g) = 1 + g t."""
    names = tuple("g" + "".join(map(str, e))
                  for e in product(*[range(n) for n in orders]))
    return line_ring("Z[%s]" % "x".join("C%d" % n for n in orders), (0,) * len(names),
                     group_mul(orders), (1,) * len(names), names=names)


# the group rings the filtration checks run on beside the builtins
GROUPS = ((4,), (2, 2), (2, 2, 2), (2, 4))


def trivial_model(n):
    """Basis one, x1..x(n-1) with only the unit products, x_i of rank zero
    and lambda_t(x_i) = 1 + x_i t, so gamma^i(x_i) = x_i at every weight."""
    names = ("one",) + tuple("x%d" % i for i in range(1, n))
    return line_ring("trivial%d" % n, (0,) * n,
                     {(0, j): basis_vector(j, n) for j in range(n)}, basis_vector(0, n),
                     names=names)


def line_powers(n):
    """L^e for 0 <= e <= 2n in K(P^n), as coefficient vectors on 1, L, ...,
    L^n: (L - 1)^(n+1) = 0 rewrites L^(n+1) in the lower powers."""
    top = [(-1) ** (n - j) * math.comb(n + 1, j) for j in range(n + 1)]
    powers = [list(basis_vector(e, n + 1)) for e in range(n + 1)]
    for _ in range(n):
        prev = powers[-1]
        powers.append([a + prev[-1] * t for a, t in zip([0] + prev[:-1], top)])
    return powers


def projective_product(ns, trunc=DEFAULT_TRUNCATION):
    """K(P^n1 x ... x P^nr) = Z[L_1..L_r]/((L_i - 1)^(n_i+1)) for ns = (n1,
    ..., nr): basis L^b in the lexicographic order of b, unit L^0, every
    basis element of rank 1 and lambda_t(L^b) = 1 + L^b t."""
    tables = [line_powers(n) for n in ns]
    exps = list(product(*(range(n + 1) for n in ns)))
    rank = len(exps)
    mul = {}
    for i, a in enumerate(exps):
        for j in range(i, rank):
            # L^a L^b is the tensor product of the factors' L_f^(a_f + b_f)
            sums = [x + y for x, y in zip(a, exps[j])]
            mul[(i, j)] = tuple(
                math.prod(t[s][z] for t, s, z in zip(tables, sums, c)) for c in exps
            )
    return line_ring("K(%s)" % " x ".join("P^%d" % n for n in ns), (0,) * rank, mul,
                     (1,) * rank, trunc, tuple("L" + "_".join(map(str, b)) for b in exps))


def projective_members(limit):
    """Every ns = (n1 >= ... >= nr >= 1) with rank prod(n_i + 1) <= limit."""
    out = []

    def extend(prefix, largest, rank):
        if prefix:
            out.append(tuple(prefix))
        for n in range(1, largest + 1):
            if rank * (n + 1) <= limit:
                extend(prefix + [n], n, rank * (n + 1))

    extend([], limit - 1, 1)
    return out


MEMBERS = projective_members(16)


def projective_result(ns):
    """The filtration of K(P^ns) at kmax min(n1 + ... + nr + 1, trunc),
    where the last piece is zero."""
    m = projective_product(ns)
    return gamma_filtration(m, min(sum(ns) + 1, m.trunc))


def dense_mul(m):
    """The structure constants of m as its constructor takes them: one dense
    row per basis pair i <= j."""
    rank = m.group.rank
    return {(i, j): tuple(dict(m.products[i][j]).get(k, 0) for k in range(rank))
            for i in range(rank) for j in range(i, rank)}


def square_two_ring():
    """Basis (one, V), V*V = 2V, d(V) = 2 and lambda_t(V) = 1 + V t, trunc 4."""
    group = GroupPresentation((0, 0), ("one", "V"))
    return RingModel("V*V = 2V", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 2)},
                     (1, 2), [[(1, 0)], [(0, 1)]], trunc=4)


# ---------------------------------------------------------------- refused rings

def zero_augmentation_ring():
    """Z[C2] on the basis (1, g) with d(g) = 0: d(g*g) = d(1) = 1."""
    group = GroupPresentation((0, 0), ("one", "g"))
    return RingModel("Z[C2], d(g) = 0", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)},
                     (1, 0), [[(1, 0)], [(0, 1)]], hyperbolic=())


def nonzero_rank_ring():
    """Basis (1, x), x^2 = x, d(x) = 0 and lambda_t(x) = 1 + x t + t^2."""
    group = GroupPresentation((0, 0), ("one", "x"))
    return RingModel("x^2 = x", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)},
                     (1, 0), [[(1, 0)], [(0, 1), (1, 0)]], hyperbolic=(), trunc=6)


def unkilled_torsion_ring():
    """Basis (1, y, x), 1 and y free, x of order 2, x*x = y, ranks (1, 0, 0),
    gamma_t(y) = 1 + y t and gamma_t(x) = 1 + x t."""
    group = GroupPresentation((0, 0, 2), ("one", "y", "x"))
    lam = [[(1, 0, 0)]] + [
        [tuple((-1) ** k * c for c in b) for k in range(6)]
        for b in ((0, 1, 0), (0, 0, 1))
    ]
    return RingModel("x*x = y, 2x = 0", group, (1, 0, 0),
                     {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1),
                      (2, 2): (0, 1, 0)},
                     (1, 0, 0), lam, hyperbolic=(), trunc=6)


def lambda_one_ring():
    """Basis (1, x), x^2 = x, d(x) = 0 and lambda_t(x) = 1 + x t^2."""
    group = GroupPresentation((0, 0), ("one", "x"))
    return RingModel("lambda^1(x) = 0", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)},
                     (1, 0), [[(1, 0)], [(0, 0), (0, 1)]], hyperbolic=(), trunc=6)


def torsion_rank_ring():
    """Basis (1, t), t of order 2, t*t = t, ranks (1, 1), lambda_t(t) = 1 + t T."""
    group = GroupPresentation((0, 2), ("one", "t"))
    return RingModel("d(t) = 1, 2t = 0", group, (1, 0),
                     {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)},
                     (1, 1), [[(1, 0)], [(0, 1)]], hyperbolic=(), trunc=6)


def torsion_series_ring():
    """Basis (1, y, x), x of order 2, only the products 1 * b = b, ranks
    (1, 0, 0), gamma_t(y) = 1 + y t and gamma_t(x) = 1 + x t + y t^2, so
    lambda_t(y) = 1 + y t/(1+t) and lambda_t(x) = 1 + x t/(1+t) +
    y t^2/(1+t)^2."""
    group = GroupPresentation((0, 0, 2), ("one", "y", "x"))
    lam = [[(1, 0, 0)],
           [(0, (-1) ** (k - 1), 0) for k in range(1, 9)],
           [(0, (-1) ** k * (k - 1), (-1) ** (k - 1)) for k in range(1, 9)]]
    return RingModel("lambda_t(x)^2 != 1, 2x = 0", group, (1, 0, 0),
                     {(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (0, 2): (0, 0, 1)},
                     (1, 0, 0), lam, hyperbolic=(), trunc=8)


def zero_unit_rank_ring():
    """Z on the basis (1,) with d = 0 and lambda_t(1) = 1 + t: every check
    but d(1) = 1 passes, so F^1 = Z would be the whole ring."""
    group = GroupPresentation((0,), ("one",))
    return RingModel("d(1) = 0", group, (1,), {(0, 0): (1,)}, (0,), [[(1,)]],
                     hyperbolic=())


# ---------------------------------------------------------------- arithmetic

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


def basis_product(self, i, j):
    """b_i b_j from the oracle's per-pair table of a model built under
    ``oracle_arithmetic``."""
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
            acc = acc + (xi * yj) * basis_product(self, i, j)
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
    """The earlier arithmetic in place of the current one, for the duration
    of the block; models constructed inside it also carry the per-pair
    table, so the oracle never reads the sparse rows."""
    saved = {key: key[0].__dict__[key[1]] for key in ORACLE}
    try:
        for (cls, name), fn in ORACLE.items():
            setattr(cls, name, fn)
        yield
    finally:
        for (cls, name), fn in saved.items():
            setattr(cls, name, fn)


@contextlib.contextmanager
def oracle_products(m):
    """The earlier ring-element product, for a model that carries its table."""
    saved = RingElement.__mul__
    if hasattr(m, "mul_table"):
        RingElement.__mul__ = oracle_ring_mul
    try:
        yield
    finally:
        RingElement.__mul__ = saved


# ---------------------------------------------------------------- drawn models

ENTRY = st.integers(-7, 7)


@st.composite
def ring_models(draw, neutral_unit, non_ring=False):
    """Z (the unit's factor) plus up to three free or torsion factors, with
    symmetric structure constants drawn at random (absent pairs are zero)
    and random basis lambda-series, built under ``oracle_arithmetic``.  With
    ``non_ring`` there are at least two factors and b1*b1 = 0, b1*b2 = b2:
    then (b1*b1)*b2 = 0 differs from b1*(b1*b2) = b2, so every draw fails
    ``is_ring`` and none is rejected."""
    factors = st.lists(st.sampled_from([0, 2, 3, 4]), min_size=2 * non_ring, max_size=3)
    orders = (0,) + tuple(draw(factors))
    rank = len(orders)
    vec = st.lists(ENTRY, min_size=rank, max_size=rank).map(tuple)
    mul = {}
    for i in range(rank):
        for j in range(i, rank):
            if i == 0 and neutral_unit:
                mul[(0, j)] = basis_vector(j, rank)
            elif non_ring and (i, j) in ((1, 1), (1, 2)):
                mul[(i, j)] = tuple(int(t == j == 2) for t in range(rank))
            elif draw(st.booleans()):
                # either orientation of the pair names the same product
                mul[(i, j) if draw(st.booleans()) else (j, i)] = draw(vec)
    lam = [[basis_vector(i, rank)] + draw(st.lists(vec, max_size=4)) for i in range(rank)]
    group = GroupPresentation(orders, tuple("b%d" % i for i in range(rank)))
    with oracle_arithmetic():
        return RingModel("drawn", group, basis_vector(0, rank), mul, (1,) * rank, lam, trunc=6)


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
    e = [basis_vector(i, rank) for i in range(rank)]
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


# ---------------------------------------------------------------- the fold

def oracle_evaluate(poly, values, one):
    """The earliest fold: every monomial the full left fold
    one * v * v * w * ..., with its prefixes memoized, on values with their
    own arithmetic."""
    if len(values) != poly.nvars:
        raise ValueError("wrong number of values")
    prefixes = {}
    acc = None
    for exps, c in poly.terms.items():
        term, key = one, ()
        for i, e in enumerate(exps):
            for _ in range(e):
                key += (i,)
                if key not in prefixes:
                    prefixes[key] = term * values[i]
                term = prefixes[key]
        term = term * c
        acc = term if acc is None else acc + term
    return acc if acc is not None else one * 0


def value_kinds(m):
    """One value: zero, the unit, a multiple of b1 (nilpotent in
    ``neutral_unit_models``), a torsion element, the unit plus a multiple of
    b1 or plus a small element, or a small element; b0 stands in for b1 at
    rank one.  Built once per model: building a strategy costs more than
    drawing from it."""
    rank = m.group.rank
    nil = min(1, rank - 1)
    torsion = [i for i, o in enumerate(m.group.orders) if o] or [nil]

    def basis_multiple(i, c):
        return m.element([c * t for t in basis_vector(i, rank)])

    small = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(m.element)
    return st.one_of(
        st.just(m.zero_element),
        st.just(m.unit_element),
        st.integers(-3, 3).map(lambda c: basis_multiple(nil, c)),
        st.builds(basis_multiple, st.sampled_from(torsion), st.integers(1, 3)),
        st.integers(-2, 2).map(lambda c: m.unit_element + basis_multiple(nil, c)),
        small.map(lambda v: m.unit_element + v),
        small,
    )


def draw_values(data, kinds, count):
    return data.draw(st.lists(kinds, min_size=count, max_size=count))


def fold(poly, values):
    """``_evaluate`` at the entries of ring elements, a coefficient tuple."""
    return _evaluate(values[0].model, poly, [_entries(v.value.coeffs) for v in values])


def reference(poly, values):
    """``oracle_evaluate`` at ring elements, a coefficient tuple."""
    return oracle_evaluate(poly, values, values[0].model.unit_element).value.coeffs


# ---------------------------------------------------------------- the checkers

def oracle_validate(m):
    """The earlier ``validate_model``: (check name, every offending case) in
    the earlier order, from ``RingElement`` products for every bracketing
    of every basis triple."""
    basis = m.basis_elements()
    one = m.unit_element
    rank = m.group.rank
    out = []

    cases = [] if m.augmentation(m.unit) == 1 else ["d(1) = %d" % m.augmentation(m.unit)]
    out.append(("augmentation(unit) == 1", cases))
    out.append(("unit is multiplicatively neutral", ["" for b in basis if (one * b) != b]))

    cases = []
    for i in range(rank):
        for j in range(i, rank):
            for k in range(j, rank):
                left = (basis[i] * basis[j]) * basis[k]
                if left != basis[i] * (basis[j] * basis[k]):
                    cases.append("(b%d*b%d)*b%d != b%d*(b%d*b%d)" % (i, j, k, i, j, k))
                if i < j < k and left != basis[j] * (basis[i] * basis[k]):
                    cases.append("(b%d*b%d)*b%d != b%d*(b%d*b%d)" % (i, j, k, j, i, k))
    out.append(("multiplication associative on basis", cases))

    cases = []
    for i, o in enumerate(m.group.orders):
        if not o:
            continue
        if m.aug[i] != 0:
            cases.append("torsion basis element %d has nonzero rank" % i)
        for j in range(rank):
            if not (o * (basis[i] * basis[j])).is_zero:
                cases.append("order %d of b%d does not kill b%d*b%d" % (o, i, i, j))
    out.append(("products respect torsion orders", cases))

    cases = []
    for i in range(rank):
        for j in range(i, rank):
            lhs = m.augmentation((basis[i] * basis[j]).value)
            rhs = m.aug[i] * m.aug[j]
            if lhs != rhs:
                cases.append("d(b%d*b%d) = %d != %d" % (i, j, lhs, rhs))
    out.append(("augmentation is a ring homomorphism", cases))

    lam = m.lambda_on_basis
    cases = []
    for i in range(rank):
        first = lam[i][0] if lam[i] else m.group.zero()
        if first != m.group.basis_element(i):
            cases.append("lambda^1(b%d) != b%d" % (i, i))
    out.append(("lambda^1 is the identity on basis", cases))

    # every degree up to the truncation, the zero ones past the stored
    # degrees too: d(lambda^k b) = C(d(b), k) need not vanish there
    cases = []
    for i in range(rank):
        for kk in range(1, m.trunc + 1):
            coeff = lam[i][kk - 1] if kk <= len(lam[i]) else m.group.zero()
            want = binomial(m.aug[i], kk)
            got = m.augmentation(coeff)
            if got != want:
                cases.append("d(lambda^%d(b%d)) = %d != C(%d,%d)" % (kk, i, got, m.aug[i], kk))
    out.append(("augmentation compatible with lambda-series", cases))

    cases = []
    for i, o in enumerate(m.group.orders):
        if o and m.basis_lambda_series(i, m.trunc).pow(o) != series_of([one], m.trunc):
            cases.append("lambda_t(b%d)^%d != 1" % (i, o))
    out.append(("lambda-series respect torsion orders", cases))
    return out


COMPOSE_PAIRS = ((2, 2), (2, 3), (3, 2))


def oracle_special_pair(x, y, bound=3, compose_pairs=COMPOSE_PAIRS):
    """The earlier ``verify_special_pair``, which built lambda_t(x),
    lambda_t(y) and lambda_t(x*y) and ran the composition checks of x afresh
    for every pair."""
    if x.model is not y.model:
        raise ValueError("elements from different models")
    one = x.model.unit_element
    need = max([bound] + [m * n for m, n in compose_pairs])
    lam_x = elements_of(lambda_total(x, need))
    lam_y = elements_of(lambda_total(y, bound))
    lam_xy = elements_of(lambda_total(x * y, bound))
    checks = []
    for n in range(1, bound + 1):
        lhs = lam_xy[n]
        values = list(lam_x[1:n + 1] + lam_y[1:n + 1])
        rhs = oracle_evaluate(product_universal(n), values, one)
        checks.append(CheckResult(
            "lambda^%d(x*y) == P_%d(lambda x, lambda y)" % (n, n),
            lhs == rhs, "lhs %r rhs %r" % (lhs.value.coeffs, rhs.value.coeffs)))
    for mm, nn in compose_pairs:
        lhs = lambda_k(lam_x[nn], mm)
        values = list(lam_x[1:mm * nn + 1])
        rhs = oracle_evaluate(compose_universal(mm, nn), values, one)
        checks.append(CheckResult(
            "lambda^%d(lambda^%d(x)) == P_%d,%d(lambda x)" % (mm, nn, mm, nn),
            lhs == rhs, "lhs %r rhs %r" % (lhs.value.coeffs, rhs.value.coeffs)))
    return Report(tuple(checks))


def basis_pairs(rank):
    return [(i, j) for i in range(rank) for j in range(i, rank)]


def outcomes(reports):
    """The reports an iterable yields, then the message it raised, if any."""
    out = []
    try:
        for report in reports:
            out.append(report)
    except ValueError as exc:
        out.append(str(exc))
    return out


def assert_special_matches_oracle(elements, pairs, bound):
    """The one-pass checker's reports on these pairs of elements, and the
    message it raises, equal the per-pair oracle's; the reports."""
    got = outcomes(_special_reports(elements, pairs, bound))
    want = outcomes(oracle_special_pair(elements[i], elements[j], bound) for i, j in pairs)
    assert got == want
    return got


# ---------------------------------------------------------------- the pieces

def oracle_spans(m, values):
    """S_1, S_2, ...: S_w spanned by the values of weight w and the products
    g * c of the lighter values g of weight i with the columns c of
    S_(w-i), one ring-element product each, fed to
    ``subgroup_from_generators`` unchanged.  A list that ``spans_to(w)``
    extends through S_w on demand: S_w depends on no kmax or cap."""
    spans = []

    def spans_to(cap):
        for w in range(len(spans) + 1, cap + 1):
            vecs = [g.value for i, g in values if i == w]
            vecs += [
                (g * m.element(c)).value
                for i, g in values if i < w
                for c in spans[w - i - 1].columns
            ]
            spans.append(subgroup_from_generators(m.group, vecs))
        return spans

    return spans_to


def oracle_pieces(m, spans, kmax, cap):
    """F^0..F^kmax from the spans of weight at most cap: F^kmax the sum of
    S_kmax..S_cap and F^k = F^(k+1) + S_k, each one HNF."""
    def total(subs):
        return subgroup_from_generators(
            m.group, [m.group.element(c) for s in subs for c in s.columns]
        )

    pieces = [total(spans[kmax - 1:cap])]
    for k in range(kmax - 1, 0, -1):
        pieces.append(total([pieces[-1], spans[k - 1]]))
    return (full_subgroup(m.group), *reversed(pieces))


def oracle_closed(m, piece, values):
    return all(
        piece.contains((g * m.element(c)).value)
        for _, g in values
        for c in piece.columns
    )


def oracle_gamma_values(gens, order):
    """The nonzero gamma^i(e), 1 <= i <= order, of each element e in turn, as
    (i, ring element) pairs: every coefficient of ``gamma_total`` wrapped in
    a ring element."""
    values = []
    for e in gens:
        coeffs = elements_of(gamma_total(e, order))
        values.extend((i, coeffs[i]) for i in range(1, order + 1) if not coeffs[i].is_zero)
    return values


def oracle_values(m):
    """The gamma-values by weight, as (weight, ring element) pairs."""
    gens = [m.group.reduce(v) for v in kernel_basis(m.aug)]
    return [(i, m.element(g)) for i, gs in _gamma_values(m, gens, m.trunc).items() for g in gs]


def assert_pieces_match_oracle(m, kmaxes):
    """Each ``gamma_filtration(m, kmax)`` has the per-weight spans' pieces,
    weight cap, exact flag and warning: exact is the one truncation clause,
    the certified cap kmax + i_max - 1 within the truncation.  Closure under
    the gamma-values is no clause of the verdict: it holds, on truncated
    results too."""
    values = oracle_values(m)
    spans_to = oracle_spans(m, values)
    imax = max((i for i, _ in values), default=0)
    for kmax in kmaxes:
        certified = kmax + max(imax - 1, 0)
        cap = min(certified, m.trunc)
        warnings = ()
        if certified > m.trunc:
            warnings = ("certified cap %d exceeds truncation %d, pieces use products "
                        "up to weight %d" % (certified, m.trunc, m.trunc),)
        pieces = oracle_pieces(m, spans_to(cap), kmax, cap)
        f = gamma_filtration(m, kmax)
        assert (f.pieces, f.weight_cap, f.exact, f.warnings) == (
            pieces, cap, not warnings, warnings), (m.name, kmax)
        assert oracle_closed(m, f.pieces[kmax], values), (m.name, kmax)


def assert_refused(m, kmaxes, message):
    """gamma_filtration(m) at each kmax, and witt_filtration on it, raise
    ValueError with this message."""
    for kmax in kmaxes:
        for call in (lambda: gamma_filtration(m, kmax=kmax),
                     lambda: witt_filtration(m, gamma_filtration(m, kmax=kmax))):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == message


def counted_hnfs(monkeypatch):
    """The argument tuples of every ``abelian.hnf_columns`` call from now on."""
    calls = []
    hnf = abelian.hnf_columns
    monkeypatch.setattr(
        abelian, "hnf_columns", lambda *args: calls.append(args) or hnf(*args)
    )
    return calls


def filtered(m, kmax):
    """The fields but the model of gamma_filtration(m, kmax) and, for a
    model with hyperbolic classes, of its Witt filtration."""
    f = gamma_filtration(m, kmax)
    results = [f] if m.hyperbolic is None else [f, witt_filtration(m, f)]
    return [dataclasses.replace(r, model=None) for r in results]


def run_in_threads(calls):
    """Run each call in a thread of its own, all started together under a
    switch interval of 1e-6; the exceptions the calls raised."""
    errors = []

    def run(call):
        try:
            call()
        except Exception as exc:  # reported by the caller
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(call,)) for call in calls]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    return errors


def exact_results(fresh_models=False):
    """The results flagged exact of the builtins and the group rings at kmax
    min(6, trunc); built anew on an emptied registry of content records when
    ``fresh_models``, so that no piece comes from a record."""
    def build(make):
        return fresh(make) if fresh_models else make

    built = [build(BUILTINS[name])(**kwargs) for name, kwargs in CLI_BUILTINS] + [
        build(group_ring)(orders) for orders in GROUPS]
    results = (gamma_filtration(m, min(6, m.trunc)) for m in built)
    return [f for f in results if f.exact]


def first_products_only(monkeypatch):
    """Make ``_times`` keep only the first product of each value's list, so
    that pieces lose generators while some result is still flagged exact."""
    times = filtration._times

    def first_only(m, spans, values, sub):
        return [p for g in values for p in times(m, spans, [g], sub)[:1]]

    monkeypatch.setattr(filtration, "_times", first_only)


def caught_built_short(monkeypatch, failure):
    """With ``first_products_only`` in place, the names of the models of
    ``exact_results`` whose result ``failure`` finds at fault."""
    first_products_only(monkeypatch)
    return {f.model.name for f in exact_results(fresh_models=True) if failure(f)}


def members_caught_built_short(monkeypatch, failure):
    """With ``first_products_only`` in place, the members of rank at most 8
    whose result is flagged exact and ``failure`` finds at fault."""
    first_products_only(monkeypatch)
    results = ((ns, projective_result(ns)) for ns in MEMBERS if math.prod(n + 1 for n in ns) <= 8)
    return {ns for ns, f in results if f.exact and failure(f)}


# ---------------------------------------------------------------- builders

def oracle_lambda_rows(group, i, rows, trunc):
    """lambda^1..lambda^trunc of basis element i as the earlier
    ``models._model`` read them off the builder: 1 + b t for a line class b
    (rows None), else the gamma-polynomial rows at t/(1+t), one group element
    at a time: lambda^k(b) = sum_i (-1)^(k-i) C(k-1, k-i) gamma^i(b)."""
    if rows is None:
        return [group.basis_element(i).coeffs]
    g = [group.element(r) for r in rows[:trunc]]
    return [sum(((-1) ** (k - i) * comb(k - 1, k - i) * g[i - 1]
                 for i in range(1, min(k, len(g)) + 1)), group.zero()).coeffs
            for k in range(1, trunc + 1)]


def torsion_elements(group):
    """All elements of the finite torsion subgroup (free coordinates zero)."""
    for coeffs in product(*(range(o) if o else range(1) for o in group.orders)):
        yield group.element(coeffs)


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


# ---------------------------------------------------------------- symmetric functions

def elementary(n, k, indices=None):
    """The elementary symmetric polynomial e_k of the variables at these
    indices, by default all n, as a polynomial in n variables."""
    terms = {}
    for subset in combinations(range(n) if indices is None else indices, k):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms) if k else MultiPoly.constant(n, 1)


def elementary_monomial(n, c, e_exps):
    """c * e_1^a_1 * ... * e_n^a_n expanded in n variables."""
    prod = MultiPoly.constant(n, c)
    for i, e in enumerate(e_exps):
        for _ in range(e):
            prod = prod * elementary(n, i + 1)
    return prod


def to_elementary(p):
    """Rewrite a symmetric polynomial in the elementary basis.

    The result lives in n fresh variables, variable i standing for e_{i+1}.
    Raises ValueError when the input is not symmetric.
    """
    n = p.nvars
    out = {}
    work = p
    while work:
        exps = max(work.terms)
        c = work.terms[exps]
        if any(exps[i] < exps[i + 1] for i in range(n - 1)):
            raise ValueError("polynomial is not symmetric")
        e_exps = tuple(exps[i] - exps[i + 1] for i in range(n - 1)) + (exps[n - 1],)
        out[e_exps] = out.get(e_exps, 0) + c
        work = work - elementary_monomial(n, c, e_exps)
    return MultiPoly(n, out)


def expand_elementary(q, n):
    """Inverse of to_elementary: substitute e_i -> elementary(n, i)."""
    if q.nvars != n:
        raise ValueError("expected a polynomial in e_1..e_n")
    acc = MultiPoly(n)
    for exps, c in q.terms.items():
        acc = acc + elementary_monomial(n, c, exps)
    return acc


def is_symmetric(p):
    for perm in permutations(range(p.nvars)):
        for exps, c in p.terms.items():
            if p.terms.get(tuple(exps[i] for i in perm), 0) != c:
                return False
    return True


# ---------------------------------------------------------------- sparse groups

def oracle_project(target, projection, elem):
    """The earlier ``project_element``: the whole projection matrix times
    the whole coefficient vector."""
    coeffs = [
        sum(row[j] * elem.coeffs[j] for j in range(len(elem.coeffs)))
        for row in projection
    ]
    return target.element(coeffs)


ORDERS = st.sampled_from([0, 0, 1, 2, 3, 4, 12, 2**64 + 13])
BIG = st.one_of(
    st.integers(-9, 9),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)


@st.composite
def presentations(draw, max_rank=5):
    orders = tuple(draw(st.lists(ORDERS, min_size=1, max_size=max_rank)))
    return GroupPresentation(orders, tuple("e%d" % i for i in range(len(orders))))


def vectors(pres):
    return st.lists(BIG, min_size=pres.rank, max_size=pres.rank).map(tuple)
