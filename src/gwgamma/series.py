"""Truncated power series over a ring model.

Coefficients are ring elements of one :class:`~gwgamma.lambdaring.RingModel`.
All series share a fixed truncation order N and store exactly N + 1
coefficients; operations never consult anything beyond the truncation, so
results are exact modulo t^(N+1).

Every coefficient of a product or an inverse is one sum of products
sum_i a_i b_(k-i), computed by one call to ``RingModel.dot``, which
accumulates the whole sum on an integer vector through the sparse structure
constants and reduces it once, so no intermediate ring element is ever built.
``dot`` reads its operands as sparse entry lists, the (index, coefficient)
pairs of the nonzero coordinates: a product converts each coefficient of
both factors once, and an inverse converts each new coefficient as it is
produced.

Powers use one binomial table per series.  Writing S = 1 + T,

    S^e = sum_{k=0}^{min(e,N)} C(e, k) T^k          (e >= 0),

and S^e = (S^-1)^(-e) for e < 0.  T^k vanishes below degree k, so each
power is the partial product T^(k-1) * T over degrees k..N only, one
``dot`` per coefficient.  The powers are built lazily and memoized on the
series, as is its inverse, so every exponent a series is raised to reads the
same table; the table holds the powers as sparse entry lists, the form that
``dot`` and ``RingModel.combine`` read, and each output degree is one
``combine``.  The sum equals the product S * ... * S only in a
commutative ring: the unit must be neutral, each basis triple must have one
product under all three bracketings, and o_i b_i b_j = 0 for every basis
element b_i of finite order o_i, so that the product does not depend on the
representatives.
``RingModel._is_ring`` holds that verdict; on a model that fails it,
``pow`` falls back to binary exponentiation, whose bracketing the
identity checks and their oracles depend on.

The two substitutions that translate between a total lambda-series and a
total gamma-series are linear with binomial coefficients:

    t -> t/(1-t):   out_k = sum_i C(k-1, k-i) * c_i          (k >= 1)
    t -> t/(1+t):   out_k = sum_i (-1)^(k-i) C(k-1, k-i) * c_i

They run per coordinate: each nonzero coordinate column of c_1..c_N is
summed against the cached row of signed binomials of each degree, and each
output degree is reduced once.

Inversion requires the constant term to be the ring unit and proceeds by
forward substitution.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul
from typing import Sequence

from .abelian import _entries


def _split(coeffs: Sequence):
    """The ring model shared by the coefficients, and their values."""
    m = coeffs[0].model
    if any(c.model is not m for c in coeffs):
        raise ValueError("elements from different models")
    return m, [c.value for c in coeffs]


class TruncSeries:
    """Power series truncated after degree ``order``."""

    # memoized on first use: _inverse, and _powers, the sparse entries of
    # T^k for T = S - 1 from degree k on
    __slots__ = ("coeffs", "_inverse", "_powers")

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("series needs at least a constant term")
        self.coeffs = tuple(coeffs)
        self._inverse = None
        self._powers = None

    @classmethod
    def one(cls, unit, order: int) -> "TruncSeries":
        return cls.from_coeffs(unit, (), order)

    @classmethod
    def from_coeffs(cls, unit, coeffs: Sequence, order: int) -> "TruncSeries":
        """Series 1 + c_1 t + c_2 t^2 + ... padded or cut to the order."""
        zero = unit * 0
        body = list(coeffs[:order])
        body += [zero] * (order - len(body))
        return cls((unit, *body))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError("series truncated at different orders")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        m, values = _split(self.coeffs + other.coeffs)
        n = len(self.coeffs)
        entries = [_entries(v) for v in values]
        a, b = entries[:n], entries[n:]
        return TruncSeries(
            [m.wrap(m.dot(zip(a[: k + 1], b[k::-1]))) for k in range(n)]
        )

    def inverse(self) -> "TruncSeries":
        if self._inverse is None:
            if not self.coeffs[0].is_unit:
                raise ValueError("series with non-unit constant term")
            m, values = _split(self.coeffs)
            a = [_entries(v) for v in values]
            out = [values[0]]
            done = [a[0]]
            for k in range(1, len(a)):
                v = -m.dot(zip(a[1 : k + 1], done[::-1]))
                out.append(v)
                done.append(_entries(v))
            self._inverse = TruncSeries([m.wrap(v) for v in out])
        return self._inverse

    def pow(self, e: int) -> "TruncSeries":
        """S^e from the binomial table of S, or of its inverse for e < 0.

        >>> from gwgamma.models import gw_point
        >>> one = gw_point("C").unit_element
        >>> s = TruncSeries.from_coeffs(one, [one], 3)
        >>> [c.value.coeffs for c in s.pow(-3).coeffs]
        [(1,), (-3,), (6,), (-10,)]
        """
        if not self.coeffs[0].is_unit:
            raise ValueError("series with non-unit constant term")
        if e == 0:
            return TruncSeries.one(self.coeffs[0], self.order)
        base = self if e > 0 else self.inverse()
        e = abs(e)
        if e == 1:
            return base
        m, a = _split(base.coeffs)
        if not m._is_ring:
            # binary exponentiation: without the ring laws the binomial sum
            # need not equal any bracketing of the product
            out = None
            while e:
                if e & 1:
                    out = base if out is None else out * base
                e >>= 1
                if e:
                    base = base * base
            return out
        top = min(e, base.order)
        powers = base._table(m, a, top)
        binoms = [comb(e, k) for k in range(top + 1)]
        out = [a[0]]
        for d in range(1, len(a)):
            out.append(m.combine(
                (binoms[k], powers[k - 1][d - k]) for k in range(1, min(top, d) + 1)
            ))
        return TruncSeries([m.wrap(v) for v in out])

    def _table(self, m, a: Sequence, top: int) -> list:
        """The sparse entries of T^1..T^top, T = S - 1; entry j of T^k is
        degree k + j."""
        powers = self._powers
        if powers is None:
            powers = self._powers = [[_entries(v) for v in a[1:]]]
        t = powers[0]
        while len(powers) < top:
            prev = powers[-1]
            powers.append([
                _entries(m.dot(zip(t[: j + 1], prev[j::-1])))
                for j in range(len(prev) - 1)
            ])
        return powers

    def _substitute(self, sign: int) -> "TruncSeries":
        """Apply t -> t/(1 - sign*t), one integer combination per degree,
        summed coordinate by coordinate."""
        m, c = _split(self.coeffs)
        rows = _signed_binomials(sign, len(c) - 1)
        columns = [
            (t, col) for t, col in enumerate(zip(*(v.coeffs for v in c[1:]))) if any(col)
        ]
        out = [self.coeffs[0]]
        for row in rows:
            acc = [0] * m.group.rank
            for t, col in columns:
                acc[t] = sum(map(mul, row, col))
            out.append(m.wrap(m.group.element(acc)))
        return TruncSeries(out)

    def substitute_geometric(self) -> "TruncSeries":
        """Apply t -> t/(1-t); sends a lambda-series to a gamma-series."""
        return self._substitute(1)

    def substitute_alternating(self) -> "TruncSeries":
        """Apply t -> t/(1+t); sends a gamma-series to a lambda-series."""
        return self._substitute(-1)


@lru_cache(maxsize=None)
def _signed_binomials(sign: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Row k - 1 holds sign^(k-i) C(k-1, k-i) for i = 1..k, k = 1..order."""
    return tuple(
        tuple(sign ** (k - i) * comb(k - 1, k - i) for i in range(1, k + 1))
        for k in range(1, order + 1)
    )


def gamma_from_lambda(series: TruncSeries) -> TruncSeries:
    return series.substitute_geometric()


def lambda_from_gamma(series: TruncSeries) -> TruncSeries:
    return series.substitute_alternating()
