"""Truncated power series over a ring model.

A series over a :class:`~gwgamma.lambdaring.RingModel` is truncated after a
fixed order N; operations never consult anything beyond the truncation, so
results are exact modulo t^(N+1).

A series is built from coordinate rows of the model's group, one per
coefficient, and stored by coordinate: for each basis coordinate k that is
nonzero in some degree, the column c_k[0..N] of the k-th coordinates of its
N + 1 coefficients, reduced modulo the order of b_k.  ``rows`` reads the
coefficients back as coordinate tuples.  No ring or group element enters
this module: the model supplies its group's ``reduce``, its unit's
coordinates, as the sparse entries ``_unit_entries``, and its
structure-constant rows.

A product is one Kronecker substitution per pair of columns: each column is
packed into one integer, sum_d c_k[d] 2^(d w), and column i of the first
factor meets column j of the second in one integer product, added with the
weight c to every output coordinate k of the structure-constant row
``products[i][j]`` (the order ``RingModel.dot`` sums in).  Each output
coordinate is unpacked once into N + 1 signed slots of w bits and reduced
once, so the result is the one that ``dot`` gives on the same coefficients,
on every model.  The slot width w is the bit length of a bound on every
output coefficient before reduction, max|a| * max|b| * (N + 1) * (the sum of
the absolute structure constants), plus a sign bit.

Powers use one binomial table per series.  Writing S = 1 + T,

    S^e = sum_{k=0}^{top} C(e, k) T^k,   top = min(e, N) for e >= 0, N for e < 0,

exactly, since T^(N+1) vanishes mod t^(N+1); C(e, k) comes from the
exact recurrence C(e, k) k = C(e, k-1) (e - k + 1) for every integer e, -1
included, so ``inverse`` is ``pow(-1)``.
Each power T^k is the column product T * T^(k-1).  The powers are built
lazily and memoized on the series, its one memo, so every exponent it is
raised to, of either sign, reads the same table, and each output column is
summed against the binomials once per degree.
In a commutative ring the sum is the product S * ... * S, or
S^-1 * ... * S^-1 with S^-1 the unique inverse, under every bracketing.  On
a model whose constants are no ring (a unit that is not neutral, a basis
triple with two products under the three bracketings, or o_i b_i b_j != 0
for a basis element b_i of finite order o_i) no bracketing is canonical, S
may have no inverse or several, and the sum, S^-1 too, is the power this
engine defines; ``validate_model`` reports such a model.

The two substitutions that translate between a total lambda-series and a
total gamma-series are linear with binomial coefficients:

    t -> t/(1-t):   out_k = sum_i C(k-1, k-i) * c_i          (k >= 1)
    t -> t/(1+t):   out_k = sum_i (-1)^(k-i) C(k-1, k-i) * c_i

They run per column: each column of c_1..c_N, up to its last nonzero
degree D, is summed against the cached row of signed binomials of each
degree, and reduced once, so a column costs O(N D) products, not O(N^2).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul
from typing import Sequence


class TruncSeries:
    """Power series truncated after degree ``order``."""

    # _columns: {k: [c_k[0], ..., c_k[order]]} for each coordinate k that is
    # nonzero in some degree; _powers, memoized on first use: the columns of
    # T^k for T = S - 1
    __slots__ = ("model", "order", "_columns", "_powers")

    def __init__(self, m, rows: Sequence[Sequence[int]], order: int):
        """The series with coefficients c_0, c_1, ... given as coordinate rows
        of ``m.group``, each reduced, cut after the order or padded with zero
        degrees up to it."""
        if type(order) is not int:
            raise ValueError("order %r is not an integer" % (order,))
        if order < 0:
            raise ValueError("order must be non-negative")
        rows = [m.group.reduce(r) for r in rows[:order + 1]]
        pad = [0] * (order + 1 - len(rows))
        self.model, self.order, self._powers = m, order, None
        self._columns = {k: list(col) + pad for k, col in enumerate(zip(*rows)) if any(col)}

    @classmethod
    def _of(cls, m, order: int, columns: dict) -> "TruncSeries":
        """The series with these reduced, nonzero columns."""
        s = cls.__new__(cls)
        s.model, s.order, s._columns, s._powers = m, order, columns, None
        return s

    def rows(self) -> list[tuple[int, ...]]:
        """The coefficients c_0..c_N as reduced coordinate tuples, read off
        the columns."""
        rank = self.model.group.rank
        rows = [[0] * rank for _ in range(self.order + 1)]
        for k, col in self._columns.items():
            for row, v in zip(rows, col):
                row[k] = v
        return [tuple(r) for r in rows]

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError("series truncated at different orders")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.model is other.model
            and self.order == other.order
            and self._columns == other._columns
        )

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        m = self.model
        if other.model is not m:
            raise ValueError("elements from different models")
        return TruncSeries._of(
            m, self.order, _product(m, self.order, self._columns, other._columns)
        )

    def inverse(self) -> "TruncSeries":
        return self.pow(-1)

    def pow(self, e: int) -> "TruncSeries":
        """S^e from the binomial table of S.

        >>> from gwgamma.models import gw_point
        >>> s = TruncSeries(gw_point("C"), [(1,), (1,)], 3)
        >>> s.pow(-3).rows()
        [(1,), (-3,), (6,), (-10,)]
        >>> s.inverse().rows(), len(s._powers)
        ([(1,), (-1,), (1,), (-1,)], 3)
        """
        if type(e) is not int:
            raise ValueError("exponent %r is not an integer" % (e,))
        m, n = self.model, self.order
        unit = m._unit_entries
        if {k: col[0] for k, col in self._columns.items() if col[0]} != dict(unit):
            raise ValueError("series with non-unit constant term")
        if e == 1:
            return self
        top = min(e, n) if e >= 0 else n
        powers = self._table(top)
        binoms, c = [], 1
        for k in range(1, top + 1):
            c = c * (e - k + 1) // k  # C(e, k) k = C(e, k-1) (e-k+1), exact
            binoms.append(c)
        # per coordinate, its columns in T^1..T^top aligned with the binomials
        held: dict = {}
        zero = [0] * (n + 1)
        for k, power in enumerate(powers[:top]):
            for q, col in power.items():
                held.setdefault(q, [zero] * top)[k] = col
        out = {q: [sum(map(mul, binoms, degree)) for degree in zip(*cols)]
               for q, cols in held.items()}
        for q, u in unit:
            out.setdefault(q, [0] * (n + 1))[0] = u
        return TruncSeries._of(m, n, _reduced(m, out))

    def _table(self, top: int) -> list:
        """The columns of T^1..T^top, T = S - 1, each the column product
        T * T^(k-1)."""
        powers = self._powers
        m, n = self.model, self.order
        if powers is None:
            powers = self._powers = [{
                k: [0] + col[1:] for k, col in self._columns.items() if any(col[1:])
            }]
        while len(powers) < top:
            powers.append(_product(m, n, powers[0], powers[-1]))
        return powers

    def _substitute(self, sign: int) -> "TruncSeries":
        """Apply t -> t/(1 - sign*t), one integer combination per column and
        degree, over the column's degrees up to its last nonzero one."""
        rows = _signed_binomials(sign, self.order)
        out = {}
        for k, col in self._columns.items():
            body = col[1:_last_degree(col) + 1]
            out[k] = [col[0]] + [sum(map(mul, row, body)) for row in rows]
        return TruncSeries._of(self.model, self.order, _reduced(self.model, out))

    def substitute_geometric(self) -> "TruncSeries":
        """Apply t -> t/(1-t); sends a lambda-series to a gamma-series."""
        return self._substitute(1)

    def substitute_alternating(self) -> "TruncSeries":
        """Apply t -> t/(1+t); sends a gamma-series to a lambda-series."""
        return self._substitute(-1)


def _reduced(m, columns: dict) -> dict:
    """The columns with the torsion coordinates reduced, zero columns dropped."""
    orders = m.group.orders
    out = {}
    for k, col in columns.items():
        o = orders[k]
        if o:
            col = [v % o for v in col]
        if any(col):
            out[k] = col
    return out


def _last_degree(col: Sequence[int]) -> int:
    """The last degree at which the column is nonzero, 0 when none above 0 is."""
    d = len(col) - 1
    while d and not col[d]:
        d -= 1
    return d


def _pack(col: Sequence[int], w: int) -> int:
    """sum_d col[d] 2^(d w)."""
    v = 0
    for c in reversed(col):
        v = (v << w) + c
    return v


def _magnitude_bits(columns: dict) -> int:
    """The bit length of the largest |c| in the columns."""
    return max(max(map(abs, col)) for col in columns.values()).bit_length()


def _product(m, n: int, a: dict, b: dict) -> dict:
    """The columns of the product of the series with columns a and b,
    truncated after degree n, by Kronecker substitution."""
    if not a or not b:
        return {}
    bound = (_magnitude_bits(a) + _magnitude_bits(b)
             + (n + 1).bit_length() + m._constant_bits)
    w = bound + 1
    packed_b = [(j, _pack(col, w)) for j, col in b.items()]
    products = m.products
    acc: dict = {}
    for i, col in a.items():
        x = _pack(col, w)
        row = products[i]
        for j, y in packed_b:
            entries = row[j]
            if entries:
                xy = x * y
                for k, c in entries:
                    acc[k] = acc.get(k, 0) + c * xy
    # unpack the low n + 1 slots: the slot of degree d is read off the bits
    # below (d + 1) w, signed, and subtracted before the next
    mask = (1 << w) - 1
    half = 1 << bound
    full = mask + 1
    low = (1 << (n + 1) * w) - 1
    out = {}
    for k, v in acc.items():
        v &= low
        col = []
        for _ in range(n + 1):
            s = v & mask
            if s >= half:
                s -= full
            col.append(s)
            v = (v - s) >> w
        out[k] = col
    return _reduced(m, out)


@lru_cache(maxsize=None)
def _signed_binomials(sign: int, order: int) -> tuple[tuple[int, ...], ...]:
    """Row k - 1 holds sign^(k-i) C(k-1, k-i) for i = 1..k, k = 1..order."""
    return tuple(
        tuple(sign ** (k - i) * comb(k - 1, k - i) for i in range(1, k + 1))
        for k in range(1, order + 1)
    )

