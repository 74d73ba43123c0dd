"""Truncated polynomial arithmetic over GF(2) and the top-class identities.

For line classes u_1, ..., u_n the product rho = (u_1 - 1)...(u_n - 1) has
total characteristic series given by evaluating

    omega(x_1, ..., x_n) = (prod_{|e| even} (1 + e.x) / prod_{|e| odd} (1 + e.x))^((-1)^n)

at x_i = first characteristic class of u_i, where e runs over {0,1}^n and
e.x = sum of the x_i with e_i = 1.  The low coefficients of omega vanish:
the first interesting degree is 2^(n-1), and there the coefficient equals
both a product of linear forms and a sum over power-of-two compositions.
``check_identities`` builds omega once, truncated at 2^(n-1), and reads
both its first positive degree and its top slice off that one series.
Everything here works with exact GF(2) arithmetic truncated by total
degree; the one division, in ``omega``, is solved degree by degree as the
exact quotient q * den = num, and ``F2Poly.inverse`` is the same solve
with num = 1.
"""

from __future__ import annotations

from itertools import product as cartesian
from operator import add
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
    def one(cls, nvars: int, maxdeg: int) -> "F2Poly":
        return cls(nvars, maxdeg, [(0,) * nvars])

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
        return F2Poly(self.nvars, self.maxdeg, _times(self.terms, other.terms, self.maxdeg))

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

    @property
    def constant_term(self) -> int:
        return 1 if (0,) * self.nvars in self.terms else 0

    def inverse(self) -> "F2Poly":
        """Multiplicative inverse of a series with constant term 1: the
        quotient of 1 by the series, solved degree by degree as in ``omega``.
        """
        if self.constant_term != 1:
            raise ValueError("inverse requires constant term 1")
        return _quotient(F2Poly.one(self.nvars, self.maxdeg), self)

    def substitute(self, index: int, value: "F2Poly") -> "F2Poly":
        """Replace one variable by a polynomial, expanding exactly.

        Truncation is faithful as long as every term of `value` has total
        degree >= 1; its one caller, the even-substitution helper of
        tests/test_milnor.py, substitutes a sum of two variables, and
        bench/layertrace wraps it by name.
        """
        self._compatible(value)
        one = F2Poly.one(self.nvars, self.maxdeg)
        total = F2Poly(self.nvars, self.maxdeg)
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


def _times(left, right, maxdeg: int) -> set[tuple[int, ...]]:
    """Exponent vectors of the product mod 2 of two sets of terms, cut
    above total degree maxdeg."""
    acc: set[tuple[int, ...]] = set()
    for s in left:
        for t in right:
            u = tuple(map(add, s, t))
            if sum(u) > maxdeg:
                continue
            if u in acc:
                acc.discard(u)
            else:
                acc.add(u)
    return acc


def _parts(p: F2Poly) -> list[set[tuple[int, ...]]]:
    """The homogeneous parts of p, indexed by degree 0..maxdeg."""
    parts: list[set[tuple[int, ...]]] = [set() for _ in range(p.maxdeg + 1)]
    for t in p.terms:
        parts[sum(t)].add(t)
    return parts


def _quotient(num: F2Poly, den: F2Poly) -> F2Poly:
    """The series q with q * den == num, for den with constant term 1.

    Solved degree by degree: with f_k the degree-k part of a series f,
    q * den = num gives q_0 = num_0 and
    q_d = num_d + den_1 q_(d-1) + ... + den_d q_0 (signs vanish mod 2),
    each term a product of two homogeneous parts.  A product with an empty
    part is skipped, so a quotient that vanishes in most degrees, as omega
    does below 2^(n-1), costs few products.
    """
    num_parts, den_parts = _parts(num), _parts(den)
    q: list[set[tuple[int, ...]]] = []
    for d, q_d in enumerate(num_parts):
        for k in range(1, d + 1):
            if den_parts[k] and q[d - k]:
                q_d ^= _times(den_parts[k], q[d - k], d)
        q.append(q_d)
    return F2Poly(num.nvars, num.maxdeg, [t for q_d in q for t in q_d])


def _support_sum(eps: tuple[int, ...], nvars: int, maxdeg: int) -> F2Poly:
    terms = [
        tuple(1 if j == i else 0 for j in range(nvars))
        for i, bit in enumerate(eps)
        if bit
    ]
    return F2Poly(nvars, maxdeg, terms)


def omega(n: int, maxdeg: int) -> F2Poly:
    """Characteristic series of (u_1 - 1)...(u_n - 1), truncated.

    The factors over even and odd support vectors are multiplied out and
    the defining quotient is solved exactly, with no separate inverse; the
    sign of the exponent only decides which product is the numerator.
    """
    if type(n) is not int:
        raise ValueError("n %r is not an integer" % (n,))
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
        return _quotient(even, odd)
    return _quotient(odd, even)


def _check_range(n: int) -> None:
    if type(n) is not int:
        raise ValueError("n %r is not an integer" % (n,))
    if not 1 <= n <= 4:
        raise ValueError("supported range is 1 <= n <= 4")


def top_class_product(n: int) -> F2Poly:
    """Product of the linear forms with odd support, degree 2^(n-1)."""
    _check_range(n)
    top = 2 ** (n - 1)
    result = F2Poly.one(n, top)
    for eps in cartesian((0, 1), repeat=n):
        if sum(eps) % 2 == 1:
            result = result * _support_sum(eps, n, top)
    return result


def top_class_sum(n: int) -> F2Poly:
    """Sum of monomials x_1^(2^r_1)...x_n^(2^r_n) with exponents adding to 2^(n-1)."""
    _check_range(n)
    top = 2 ** (n - 1)
    terms = []
    for rs in cartesian(range(n), repeat=n):
        exps = tuple(2**r for r in rs)
        if sum(exps) == top:
            terms.append(exps)
    return F2Poly(n, top, terms)


def check_identities(n: int) -> Report:
    """Two named checks: low-degree vanishing and the top-class equalities.

    The second check is three-way: closed product form, composition sum
    form, and the degree-2^(n-1) slice of the series itself.  Both checks
    read the one series omega(n, 2^(n-1)).
    """
    _check_range(n)
    top = 2 ** (n - 1)
    series = omega(n, top)
    first = series.min_positive_degree()
    vanish = CheckResult(
        "vanishing<%d" % top,
        first == top,
        "first nonzero positive degree is %s, expected %d" % (first, top),
    )
    product_form = top_class_product(n)
    sum_form = top_class_sum(n)
    series_part = series.homogeneous_part(top)
    agree = product_form == sum_form == series_part
    product_sum = CheckResult(
        "product=sum",
        agree,
        "forms disagree: product %r, sum %r, series slice %r"
        % (product_form, sum_form, series_part),
    )
    return Report((vanish, product_sum))
