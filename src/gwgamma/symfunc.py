"""Symmetric polynomials over Z and the universal lambda-ring identities.

The workhorse is a sparse multivariate polynomial with integer coefficients.
Symmetric polynomials are rewritten in the elementary basis by repeatedly
cancelling the lexicographically leading term: a symmetric polynomial with
leading exponent ``l_1 >= l_2 >= ... >= l_n`` loses that term after
subtracting ``c * e_1^(l_1-l_2) * e_2^(l_2-l_3) * ... * e_n^(l_n)``, and the
leading exponent strictly decreases, so the loop terminates.

On top of that sit the universal polynomials that make the lambda-operation
identities checkable on concrete ring elements:

* ``newton_psi(k)``   -- the power sum p_k in e_1..e_k (Newton's recursion),
* ``product_universal(n)`` -- P_n with lambda^n(x*y) = P_n(lambda(x); lambda(y)),
  read off the coefficient of t^n in prod_{i,j} (1 + x_i y_j t),
* ``compose_universal(m, n)`` -- P_{m,n} with lambda^m(lambda^n(x)) =
  P_{m,n}(lambda(x)), read off prod_{|S|=n} (1 + x_S t) over n-subsets
  S of {1..mn}, where x_S is the product of the variables indexed by S.

Everything is computed by literal expansion and exact integer arithmetic;
results are memoized since the expansions are only desk-scale for the
default bounds (n <= 4 for products, m*n <= 6 for composition).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

PRODUCT_DEGREE_BOUND = 4
COMPOSE_WEIGHT_BOUND = 6


class MultiPoly:
    """Sparse polynomial in a fixed number of variables, integer coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for exps, c in terms.items():
                if c:
                    if len(exps) != nvars:
                        raise ValueError("exponent vector of wrong length")
                    clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def constant(cls, nvars: int, c: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = out.get(exps, 0) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def leading(self) -> tuple[tuple[int, ...], int]:
        exps = max(self.terms)
        return exps, self.terms[exps]

    def evaluate(self, values: Sequence, one):
        """Evaluate with ring-element values; `one` is the ring unit.

        Each monomial is the left fold v * v * w * ... of its values; the
        terms share their prefixes, each multiplied once per call and
        memoized by its sequence of variable indices, so the bracketing
        never changes and no value is hashed.  A fold starts from its first
        value, passes over a factor equal to `one`, and a prefix equal to
        zero (or extended by a zero value) is marked dead, which drops every
        term it begins.

        Precondition: the product is bilinear and `one` is neutral on both
        sides, so that these skips give the value of the full fold.  Every
        ring model that reaches this through ``lambda_total`` qualifies,
        since it refuses a model whose unit is not neutral; so do ints with
        `one` = 1 and ``MultiPoly`` values with the constant 1.
        """
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        zero = one * 0
        is_one = [v == one for v in values]
        is_zero = [v == zero for v in values]
        # prefixes[key]: the fold of the values indexed by key, None if zero
        prefixes: dict = {}
        acc = None
        for exps, c in self.terms.items():
            term, key = one, ()
            for i in [i for i, e in enumerate(exps) for _ in range(e)]:
                key += (i,)
                if key not in prefixes:
                    if is_zero[i]:
                        value = None
                    elif len(key) == 1:
                        value = values[i]
                    elif is_one[i]:
                        value = term
                    else:
                        value = term * values[i]
                        if value == zero:
                            value = None
                    prefixes[key] = value
                term = prefixes[key]
                if term is None:
                    break
            else:
                term = term * c
                acc = term if acc is None else acc + term
        return acc if acc is not None else zero


def elementary(n: int, k: int) -> MultiPoly:
    """Elementary symmetric polynomial e_k in n variables."""
    if k < 0:
        raise ValueError("negative degree")
    if k > n:
        return MultiPoly(n)
    if k == 0:
        return MultiPoly.constant(n, 1)
    terms = {}
    for subset in combinations(range(n), k):
        exps = [0] * n
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def to_elementary(p: MultiPoly) -> MultiPoly:
    """Rewrite a symmetric polynomial in the elementary basis.

    The result lives in n fresh variables, variable i standing for e_{i+1}.
    Raises ValueError when the input is not symmetric.
    """
    n = p.nvars
    out: dict[tuple[int, ...], int] = {}
    work = p
    while work:
        exps, c = work.leading()
        if any(exps[i] < exps[i + 1] for i in range(n - 1)):
            raise ValueError("polynomial is not symmetric")
        e_exps = tuple(
            exps[i] - exps[i + 1] for i in range(n - 1)
        ) + (exps[n - 1],)
        out[e_exps] = out.get(e_exps, 0) + c
        prod = MultiPoly.constant(n, c)
        for i, e in enumerate(e_exps):
            if e:
                prod = prod * elementary(n, i + 1) ** e
        work = work - prod
    return MultiPoly(n, out)


@lru_cache(maxsize=None)
def newton_psi(k: int) -> MultiPoly:
    """Power sum p_k written in e_1..e_k via Newton's recursion."""
    if k < 1:
        raise ValueError("k must be positive")
    polys = []
    for m in range(1, k + 1):
        acc = MultiPoly(k)
        for i in range(1, m):
            sign = 1 if (i - 1) % 2 == 0 else -1
            acc = acc + sign * (MultiPoly.variable(k, i - 1) * polys[m - i - 1])
        sign = 1 if (m - 1) % 2 == 0 else -1
        acc = acc + sign * m * MultiPoly.variable(k, m - 1)
        polys.append(acc)
    return polys[k - 1]


def _convert_block(p: MultiPoly, lo: int, hi: int) -> MultiPoly:
    """Rewrite the symmetric block of variables [lo, hi) in elementary form."""
    width = hi - lo
    groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    for exps, c in p.terms.items():
        rest = exps[:lo] + exps[hi:]
        block = exps[lo:hi]
        groups.setdefault(rest, {})[block] = c
    out: dict[tuple[int, ...], int] = {}
    for rest, sub in groups.items():
        conv = to_elementary(MultiPoly(width, sub))
        for bexps, c in conv.terms.items():
            full = rest[:lo] + bexps + rest[lo:]
            out[full] = out.get(full, 0) + c
    return MultiPoly(p.nvars, out)


@lru_cache(maxsize=None)
def product_universal(n: int, bound: int = PRODUCT_DEGREE_BOUND) -> MultiPoly:
    """P_n in 2n variables e_1..e_n, f_1..f_n.

    Specializing e_i = lambda^i(x) and f_j = lambda^j(y) yields
    lambda^n(x*y) in any special lambda-ring.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > bound:
        raise ValueError("degree bound exceeded for product_universal")
    nv = 2 * n
    pairs = [(i, j) for i in range(n) for j in range(n)]
    coeff: dict[tuple[int, ...], int] = {}
    for chosen in combinations(pairs, n):
        exps = [0] * nv
        for i, j in chosen:
            exps[i] += 1
            exps[n + j] += 1
        exps = tuple(exps)
        coeff[exps] = coeff.get(exps, 0) + 1
    poly = MultiPoly(nv, coeff)
    poly = _convert_block(poly, 0, n)
    poly = _convert_block(poly, n, nv)
    return poly


@lru_cache(maxsize=None)
def compose_universal(
    m: int, n: int, bound: int = COMPOSE_WEIGHT_BOUND
) -> MultiPoly:
    """P_{m,n} in mn variables e_1..e_{mn}.

    Specializing e_i = lambda^i(x) yields lambda^m(lambda^n(x)) in any
    special lambda-ring.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m * n > bound:
        raise ValueError("weight bound exceeded for compose_universal")
    nv = m * n
    subsets = list(combinations(range(nv), n))
    coeff: dict[tuple[int, ...], int] = {}
    for chosen in combinations(subsets, m):
        exps = [0] * nv
        for s in chosen:
            for i in s:
                exps[i] += 1
        exps = tuple(exps)
        coeff[exps] = coeff.get(exps, 0) + 1
    return to_elementary(MultiPoly(nv, coeff))


def binomial(n: int, k: int) -> int:
    """C(n, k) for arbitrary integer n (negative upper index allowed)."""
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    sign = -1 if k % 2 else 1
    return sign * math.comb(-n + k - 1, k)
