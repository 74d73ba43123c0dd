"""Truncated power series with coefficients in Z or in a ring model.

Coefficients are either all Python ints or all ring elements of one
:class:`~gwgamma.lambdaring.RingModel`.  All series share a fixed truncation
order N and store exactly N + 1 coefficients; operations never consult
anything beyond the truncation, so results are exact modulo t^(N+1).

Every coefficient of a product or an inverse is one sum of products
sum_i a_i b_(k-i).  Over the integers it is a plain integer sum; over a ring
model it is one call to ``RingModel.dot``, which accumulates the whole sum
on an integer vector through the sparse structure constants and reduces it
once, so no intermediate ring element is ever built.

The two substitutions that translate between a total lambda-series and a
total gamma-series are linear with binomial coefficients, and each output
coefficient is computed as one integer combination:

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


class _Integers:
    """Stands in for the ring model when the coefficients are plain ints."""

    @staticmethod
    def dot(pairs) -> int:
        return sum(x * y for x, y in pairs)

    @staticmethod
    def combine(terms) -> int:
        return sum(n * x for n, x in terms)

    @staticmethod
    def wrap(value: int) -> int:
        return value


def _split(coeffs: Sequence):
    """(ring, values): the shared ring model and the group-element values of
    ring-element coefficients, or ``_Integers`` and the ints themselves."""
    if isinstance(coeffs[0], int):
        return _Integers, coeffs
    m = coeffs[0].model
    if any(c.model is not m for c in coeffs):
        raise ValueError("elements from different models")
    return m, [c.value for c in coeffs]


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
        m, values = _split(self.coeffs + other.coeffs)
        n = len(self.coeffs)
        a, b = values[:n], values[n:]
        return TruncSeries(
            [m.wrap(m.dot(zip(a[: k + 1], b[k::-1]))) for k in range(n)]
        )

    def inverse(self) -> "TruncSeries":
        if not _is_unit_coeff(self.coeffs[0]):
            raise ValueError("series with non-unit constant term")
        m, a = _split(self.coeffs)
        out = [a[0]]
        for k in range(1, len(a)):
            out.append(-m.dot(zip(a[1 : k + 1], out[::-1])))
        return TruncSeries([m.wrap(v) for v in out])

    def pow(self, e: int) -> "TruncSeries":
        if not _is_unit_coeff(self.coeffs[0]):
            raise ValueError("series with non-unit constant term")
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = None
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return TruncSeries.one(self.coeffs[0], self.order) if out is None else out

    def _substitute(self, sign: int) -> "TruncSeries":
        """Apply t -> t/(1 - sign*t), one integer combination per degree."""
        m, c = _split(self.coeffs)
        out = [c[0]]
        for k in range(1, len(c)):
            out.append(m.combine(
                (sign ** (k - i) * comb(k - 1, k - i), c[i]) for i in range(1, k + 1)
            ))
        return TruncSeries([m.wrap(v) for v in out])

    def substitute_geometric(self) -> "TruncSeries":
        """Apply t -> t/(1-t); sends a lambda-series to a gamma-series."""
        return self._substitute(1)

    def substitute_alternating(self) -> "TruncSeries":
        """Apply t -> t/(1+t); sends a gamma-series to a lambda-series."""
        return self._substitute(-1)


def gamma_from_lambda(series: TruncSeries) -> TruncSeries:
    return series.substitute_geometric()


def lambda_from_gamma(series: TruncSeries) -> TruncSeries:
    return series.substitute_alternating()
