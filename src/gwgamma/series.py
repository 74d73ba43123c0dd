"""Truncated power series with coefficients in an arbitrary commutative ring.

Coefficients only need ``+``, unary ``-``, ``*`` with each other and with
Python ints; plain integers work, and so do the ring elements from
:mod:`gwgamma.lambdaring`.  All series share a fixed truncation order N and
store exactly N + 1 coefficients; operations never consult anything beyond
the truncation, so results are exact modulo t^(N+1).

The two substitutions that translate between a total lambda-series and a
total gamma-series are linear with binomial coefficients:

    t -> t/(1-t):   out_k = sum_i C(k-1, k-i) * c_i          (k >= 1)
    t -> t/(1+t):   out_k = sum_i (-1)^(k-i) C(k-1, k-i) * c_i

Inversion requires the constant term to be the ring unit (the int 1, or a
coefficient whose ``is_unit`` is true) and proceeds by forward substitution.
"""

from __future__ import annotations

from math import comb
from typing import Sequence


def _is_unit_coeff(c) -> bool:
    if isinstance(c, int):
        return c == 1
    return c.is_unit


class TruncSeries:
    """Power series truncated after degree ``order``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if not coeffs:
            raise ValueError("series needs at least a constant term")
        self.coeffs = tuple(coeffs)

    @classmethod
    def one(cls, unit, order: int) -> "TruncSeries":
        zero = unit * 0
        return cls((unit,) + (zero,) * order)

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
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return TruncSeries(out)

    def inverse(self) -> "TruncSeries":
        if not _is_unit_coeff(self.coeffs[0]):
            raise ValueError("series with non-unit constant term")
        n = self.order
        a = self.coeffs
        out = [a[0]]
        for k in range(1, n + 1):
            acc = a[1] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + a[i] * out[k - i]
            out.append(-acc)
        return TruncSeries(out)

    def pow(self, e: int) -> "TruncSeries":
        if not _is_unit_coeff(self.coeffs[0]):
            raise ValueError("series with non-unit constant term")
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = TruncSeries.one(self.coeffs[0], self.order)
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def substitute_geometric(self) -> "TruncSeries":
        """Apply t -> t/(1-t); sends a lambda-series to a gamma-series."""
        c = self.coeffs
        out = [c[0]]
        for k in range(1, self.order + 1):
            acc = c[1] * comb(k - 1, k - 1)
            for i in range(2, k + 1):
                acc = acc + comb(k - 1, k - i) * c[i]
            out.append(acc)
        return TruncSeries(out)

    def substitute_alternating(self) -> "TruncSeries":
        """Apply t -> t/(1+t); sends a gamma-series to a lambda-series."""
        c = self.coeffs
        out = [c[0]]
        for k in range(1, self.order + 1):
            acc = c[1] * ((-1) ** (k - 1) * comb(k - 1, k - 1))
            for i in range(2, k + 1):
                acc = acc + ((-1) ** (k - i) * comb(k - 1, k - i)) * c[i]
            out.append(acc)
        return TruncSeries(out)


def gamma_from_lambda(series: TruncSeries) -> TruncSeries:
    return series.substitute_geometric()


def lambda_from_gamma(series: TruncSeries) -> TruncSeries:
    return series.substitute_alternating()
