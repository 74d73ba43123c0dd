"""Truncated polynomial arithmetic over GF(2) and the top-class identities.

For line classes u_1, ..., u_n the product rho = (u_1 - 1)...(u_n - 1) has
total characteristic series given by evaluating

    omega(x_1, ..., x_n) = (prod_{|e| even} (1 + e.x) / prod_{|e| odd} (1 + e.x))^((-1)^n)

at x_i = first characteristic class of u_i, where e runs over {0,1}^n and
e.x = sum of the x_i with e_i = 1.  The low coefficients of omega vanish:
the first interesting degree is 2^(n-1), and there the coefficient equals
both a product of linear forms and a sum over power-of-two compositions.
Everything here works with exact GF(2) arithmetic truncated by total degree.
"""

from __future__ import annotations

from itertools import product as cartesian
from typing import Iterable

from .lambdaring import CheckResult, Report


class F2Poly:
    """Polynomial mod 2 in a fixed number of variables, cut at a total degree.

    Terms are a set of exponent tuples; a monomial is present iff its
    coefficient is 1.  Addition toggles membership, multiplication adds
    exponent vectors and drops anything beyond the truncation degree.
    """

    __slots__ = ("nvars", "maxdeg", "terms")

    def __init__(self, nvars: int, maxdeg: int, terms: Iterable[tuple[int, ...]] = ()):
        if nvars < 1 or maxdeg < 0:
            raise ValueError("need at least one variable and maxdeg >= 0")
        self.nvars = nvars
        self.maxdeg = maxdeg
        kept: set[tuple[int, ...]] = set()
        for t in terms:
            t = tuple(t)
            if len(t) != nvars:
                raise ValueError("exponent vector %r has wrong length" % (t,))
            if sum(t) > maxdeg:
                continue
            # duplicates cancel mod 2
            if t in kept:
                kept.discard(t)
            else:
                kept.add(t)
        self.terms = frozenset(kept)

    @classmethod
    def zero(cls, nvars: int, maxdeg: int) -> "F2Poly":
        return cls(nvars, maxdeg)

    @classmethod
    def one(cls, nvars: int, maxdeg: int) -> "F2Poly":
        return cls(nvars, maxdeg, [(0,) * nvars])

    @classmethod
    def variable(cls, index: int, nvars: int, maxdeg: int) -> "F2Poly":
        if not 0 <= index < nvars:
            raise ValueError("variable index out of range")
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(nvars, maxdeg, [exps])

    def _compatible(self, other: "F2Poly") -> None:
        if self.nvars != other.nvars or self.maxdeg != other.maxdeg:
            raise ValueError("mixed variable counts or truncation degrees")

    def __add__(self, other: "F2Poly") -> "F2Poly":
        self._compatible(other)
        return F2Poly(self.nvars, self.maxdeg, self.terms ^ other.terms)

    # subtraction is addition mod 2
    __sub__ = __add__

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        self._compatible(other)
        acc: set[tuple[int, ...]] = set()
        for s in self.terms:
            for t in other.terms:
                u = tuple(a + b for a, b in zip(s, t))
                if sum(u) > self.maxdeg:
                    continue
                if u in acc:
                    acc.discard(u)
                else:
                    acc.add(u)
        return F2Poly(self.nvars, self.maxdeg, acc)

    def __pow__(self, k: int) -> "F2Poly":
        if k < 0:
            raise ValueError("negative power; use inverse() first")
        result = F2Poly.one(self.nvars, self.maxdeg)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, F2Poly):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.maxdeg == other.maxdeg
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.maxdeg, self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return 1 if (0,) * self.nvars in self.terms else 0

    def inverse(self) -> "F2Poly":
        """Multiplicative inverse of a series with constant term 1."""
        if self.constant_term != 1:
            raise ValueError("inverse requires constant term 1")
        one = F2Poly.one(self.nvars, self.maxdeg)
        tail = self + one
        # tail has no constant term, so tail^k starts in degree >= k and
        # the fixed-point iteration q = 1 + tail*q settles after maxdeg steps
        q = one
        for _ in range(self.maxdeg):
            q = one + tail * q
        return q

    def substitute(self, index: int, value: "F2Poly") -> "F2Poly":
        """Replace one variable by a polynomial, expanding exactly.

        Truncation is faithful as long as every term of `value` has total
        degree >= 1; the two call sites here substitute sums of variables.
        """
        self._compatible(value)
        one = F2Poly.one(self.nvars, self.maxdeg)
        total = F2Poly.zero(self.nvars, self.maxdeg)
        powers: dict[int, F2Poly] = {0: one}
        for t in sorted(self.terms):
            e = t[index]
            if e not in powers:
                powers[e] = value**e
            rest = tuple(0 if j == index else v for j, v in enumerate(t))
            total = total + F2Poly(self.nvars, self.maxdeg, [rest]) * powers[e]
        return total

    def homogeneous_part(self, degree: int) -> "F2Poly":
        picked = [t for t in self.terms if sum(t) == degree]
        return F2Poly(self.nvars, self.maxdeg, picked)

    def min_positive_degree(self) -> int | None:
        degrees = [sum(t) for t in self.terms if sum(t) > 0]
        return min(degrees) if degrees else None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(t: tuple[int, ...]) -> str:
            if sum(t) == 0:
                return "1"
            parts = []
            for j, e in enumerate(t):
                if e == 1:
                    parts.append("x%d" % (j + 1))
                elif e > 1:
                    parts.append("x%d^%d" % (j + 1, e))
            return "*".join(parts)

        ordered = sorted(self.terms, key=lambda t: (sum(t), t))
        return " + ".join(fmt(t) for t in ordered)


def _support_sum(eps: tuple[int, ...], nvars: int, maxdeg: int) -> F2Poly:
    terms = [
        tuple(1 if j == i else 0 for j in range(nvars))
        for i, bit in enumerate(eps)
        if bit
    ]
    return F2Poly(nvars, maxdeg, terms)


def omega(n: int, maxdeg: int) -> F2Poly:
    """Characteristic series of (u_1 - 1)...(u_n - 1), truncated.

    Computed directly from the defining quotient of products over even and
    odd support vectors; the sign of the exponent decides which side gets
    inverted, which over GF(2) only swaps numerator and denominator.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if maxdeg < 2 ** (n - 1):
        raise ValueError(
            "truncation degree %d too small; need at least %d" % (maxdeg, 2 ** (n - 1))
        )
    even = F2Poly.one(n, maxdeg)
    odd = F2Poly.one(n, maxdeg)
    one = F2Poly.one(n, maxdeg)
    for eps in cartesian((0, 1), repeat=n):
        weight = sum(eps)
        if weight == 0:
            continue
        factor = one + _support_sum(eps, n, maxdeg)
        if weight % 2 == 0:
            even = even * factor
        else:
            odd = odd * factor
    if n % 2 == 0:
        return even * odd.inverse()
    return odd * even.inverse()


def vanishing_range(n: int) -> int:
    """Smallest positive degree with a nonzero coefficient in omega.

    Uses truncation exactly at 2^(n-1); kept at desk scale (n <= 4).
    """
    if not 1 <= n <= 4:
        raise ValueError("supported range is 1 <= n <= 4")
    first = omega(n, 2 ** (n - 1)).min_positive_degree()
    if first is None:
        raise ArithmeticError("series is constant up to degree %d" % 2 ** (n - 1))
    return first


def top_class_product(n: int) -> F2Poly:
    """Product of the linear forms with odd support, degree 2^(n-1)."""
    if not 1 <= n <= 4:
        raise ValueError("supported range is 1 <= n <= 4")
    top = 2 ** (n - 1)
    result = F2Poly.one(n, top)
    for eps in cartesian((0, 1), repeat=n):
        if sum(eps) % 2 == 1:
            result = result * _support_sum(eps, n, top)
    return result


def top_class_sum(n: int) -> F2Poly:
    """Sum of monomials x_1^(2^r_1)...x_n^(2^r_n) with exponents adding to 2^(n-1)."""
    if not 1 <= n <= 4:
        raise ValueError("supported range is 1 <= n <= 4")
    top = 2 ** (n - 1)
    terms = []
    for rs in cartesian(range(n), repeat=n):
        exps = tuple(2**r for r in rs)
        if sum(exps) == top:
            terms.append(exps)
    return F2Poly(n, top, terms)


def even_substitution_is_trivial(n: int, maxdeg: int) -> bool:
    """Check that sending x_n to x_1 + x_2 collapses omega to 1.

    Replacing a variable by a sum of an even number of other variables makes
    the even and odd factors of the defining quotient cancel pairwise, so
    the truncated series must come out exactly constant.
    """
    if n < 3:
        raise ValueError("need n >= 3 so that x_1 + x_2 avoids x_n")
    w = omega(n, maxdeg)
    pair = F2Poly.variable(0, n, maxdeg) + F2Poly.variable(1, n, maxdeg)
    return w.substitute(n - 1, pair) == F2Poly.one(n, maxdeg)


def check_identities(n: int) -> Report:
    """Two named checks: low-degree vanishing and the top-class equalities.

    The second check is three-way: closed product form, composition sum
    form, and the degree-2^(n-1) slice of the series itself.
    """
    top = 2 ** (n - 1)
    first = vanishing_range(n)
    vanish = CheckResult(
        "vanishing<%d" % top,
        first == top,
        "first nonzero positive degree is %d, expected %d" % (first, top),
    )
    product_form = top_class_product(n)
    sum_form = top_class_sum(n)
    series_part = omega(n, top).homogeneous_part(top)
    agree = product_form == sum_form == series_part
    product_sum = CheckResult(
        "product=sum",
        agree,
        "forms disagree: product %r, sum %r, series slice %r"
        % (product_form, sum_form, series_part),
    )
    return Report((vanish, product_sum))
