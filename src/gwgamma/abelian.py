"""Exact arithmetic in finitely generated abelian groups.

A group is presented as ``Z/o_1 x ... x Z/o_n`` where each order ``o_i >= 0``
and ``o_i = 0`` marks an infinite cyclic factor.  Elements are integer
coefficient vectors, stored canonically (torsion coordinates reduced into
``[0, o_i)``).  A subgroup is stored as the column-style Hermite normal form
of the integer lattice spanned by its generators together with the relation
vectors ``o_i * e_i`` inside the free cover ``Z^n``.  Because the HNF is
canonical, two subgroups are equal if and only if their stored matrices are
identical, and membership reduces to back-substitution along pivot rows.

Quotients are described by invariant factors ``d_1 | d_2 | ...`` obtained
from the Smith normal form; factors equal to 1 are suppressed and ``0``
denotes a free summand and sorts last, so e.g. ``(2, 4, 0)`` means
``Z/2 + Z/4 + Z``.  One Smith routine serves every quotient.  It returns the
diagonal and the row transform ``U``, which travels with the rows of the
matrix; the rows of ``U`` kept for the factors other than 1 project onto the
quotient's coordinates.

Everything runs on plain Python integers, so there is no overflow anywhere.

>>> pres = GroupPresentation((2, 0), ("t", "u"))
>>> s = subgroup_from_generators(pres, [pres.element((1, 2))])
>>> s.contains(pres.element((1, 2))), s.contains(pres.element((0, 1)))
(True, False)
>>> quotient_presentation(pres, s)[0].orders
(4,)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as _iproduct
from typing import Iterable, Sequence


@dataclass(frozen=True)
class GroupPresentation:
    """Direct sum of cyclic groups, given by orders (0 = infinite cyclic)."""

    orders: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.orders) != len(self.names):
            raise ValueError("orders and names must have equal length")
        if any(o < 0 for o in self.orders):
            raise ValueError("orders must be non-negative")

    @cached_property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def _torsion(self) -> tuple[tuple[int, int], ...]:
        """(index, order) of each finite cyclic factor."""
        return tuple((i, o) for i, o in enumerate(self.orders) if o)

    @cached_property
    def _relations(self) -> tuple[tuple[int, ...], ...]:
        """The relation vector o_i e_i of each finite cyclic factor."""
        rank = self.rank
        return tuple(tuple(o * (t == i) for t in range(rank)) for i, o in self._torsion)

    def reduce(self, coeffs: Sequence[int]) -> tuple[int, ...]:
        """The canonical form of a coefficient vector: only the torsion
        coordinates are reduced, and without torsion it is a copy."""
        if len(coeffs) != self.rank:
            raise ValueError(
                "coefficient vector of length %d for presentation of rank %d"
                % (len(coeffs), self.rank)
            )
        torsion = self._torsion
        if not torsion:
            return tuple(coeffs)
        out = list(coeffs)
        for i, o in torsion:
            out[i] %= o
        return tuple(out)

    def element(self, coeffs: Sequence[int]) -> "GroupElement":
        return GroupElement(self, self.reduce(coeffs))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def basis_element(self, i: int) -> "GroupElement":
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return self.element(coeffs)

    def basis(self) -> tuple["GroupElement", ...]:
        return tuple(self.basis_element(i) for i in range(self.rank))


@dataclass(frozen=True)
class GroupElement:
    """Canonical coefficient vector in a fixed presentation."""

    pres: GroupPresentation
    coeffs: tuple[int, ...]

    def _check(self, other: "GroupElement") -> None:
        if self.pres != other.pres:
            raise ValueError("elements belong to different presentations")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.pres.element(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return self.pres.element(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "GroupElement":
        return self.pres.element(tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> "GroupElement":
        if not isinstance(n, int):
            return NotImplemented
        return self.pres.element(tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def _entries(coeffs: Sequence[int]) -> list[tuple[int, int]]:
    """The sparse form of a coefficient vector: (index, coefficient) of each
    nonzero coordinate."""
    return [(i, c) for i, c in enumerate(coeffs) if c]


def _eliminate(cols: list[list[int]], r: int) -> None:
    """Gcd-eliminate in row r, in place, until at most one column is nonzero there.

    Each round picks the column with the smallest nonzero entry in row r and
    subtracts its floor multiples from the other live columns.
    """
    while True:
        live = [c for c in cols if c[r] != 0]
        if len(live) <= 1:
            return
        c0 = min(live, key=lambda c: abs(c[r]))
        for c in live:
            if c is c0:
                continue
            q = c[r] // c0[r]
            if q:
                for i in range(len(c)):
                    c[i] -= q * c0[i]


def hnf_columns(
    vectors: Iterable[Sequence[int]], rank: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Canonical column-style Hermite normal form of an integer lattice.

    Returns ``(columns, pivot_rows)``.  Column ``j`` has its topmost nonzero
    entry (the pivot, always positive) in row ``pivot_rows[j]``, pivot rows
    strictly increase with ``j``, and every other entry in a pivot row is
    reduced into ``[0, pivot)``.  Equal lattices yield bit-identical output.
    """
    cols = []
    for v in vectors:
        if len(v) != rank:
            raise ValueError("generator of wrong length")
        if any(v):
            cols.append(list(v))
    h = 0
    pivot_rows = []
    for r in range(rank):
        if h == len(cols):
            break
        _eliminate(cols[h:], r)
        live = [c for c in range(h, len(cols)) if cols[c][r] != 0]
        if not live:
            continue
        c0 = live[0]
        cols[h], cols[c0] = cols[c0], cols[h]
        if cols[h][r] < 0:
            cols[h] = [-x for x in cols[h]]
        p = cols[h][r]
        for c in range(h):
            q = cols[c][r] // p  # floor => remainder in [0, p)
            if q:
                for i in range(rank):
                    cols[c][i] -= q * cols[h][i]
        pivot_rows.append(r)
        h += 1
    return tuple(tuple(c) for c in cols[:h]), tuple(pivot_rows)


@dataclass(frozen=True)
class Subgroup:
    """Subgroup in canonical HNF; includes the relation lattice by design."""

    pres: GroupPresentation
    columns: tuple[tuple[int, ...], ...]
    pivot_rows: tuple[int, ...]

    def _solve(self, target: Sequence[int]) -> list[int] | None:
        """Integer coordinates of target in the column lattice, or None."""
        v = list(target)
        out = []
        for col, r in zip(self.columns, self.pivot_rows):
            p = col[r]
            if v[r] % p:
                return None
            q = v[r] // p
            out.append(q)
            if q:
                for i in range(len(v)):
                    v[i] -= q * col[i]
        if any(v):
            return None
        return out

    def contains(self, elem: GroupElement) -> bool:
        """The tests' membership check; bench/layertrace wraps it by name."""
        if elem.pres != self.pres:
            raise ValueError("element from a different presentation")
        return self._solve(elem.coeffs) is not None

    def __le__(self, other: "Subgroup") -> bool:
        """The tests' inclusion check; bench/layertrace wraps it by name."""
        if self.pres != other.pres:
            raise ValueError("subgroups of different presentations")
        return all(other._solve(c) is not None for c in self.columns)

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def is_zero(self) -> bool:
        """The trivial subgroup: its HNF columns are the relation vectors."""
        return self.columns == self.pres._relations


def _span(pres: GroupPresentation, vectors: list[tuple[int, ...]]) -> Subgroup:
    """The subgroup generated by integer vectors and the relation vectors.

    Each distinct vector, reduced or not, reaches ``hnf_columns`` once; the
    HNF is canonical, so dropping repeats leaves the result unchanged.  A
    column equal to a given vector is stored as that vector's tuple, a
    relation vector's if it is one, so equal tuples are held once.
    """
    given = {v: v for v in [*vectors, *pres._relations]}
    cols, pivots = hnf_columns(given, pres.rank)
    return Subgroup(pres, tuple(given.get(c, c) for c in cols), pivots)


def subgroup_from_generators(
    pres: GroupPresentation, gens: Iterable[GroupElement]
) -> Subgroup:
    vectors = []
    for g in gens:
        if g.pres != pres:
            raise ValueError("generator from a different presentation")
        vectors.append(g.coeffs)
    return _span(pres, vectors)


def full_subgroup(pres: GroupPresentation) -> Subgroup:
    """The whole group: its HNF is the identity, e_i pivoting in row i, held once per rank."""
    return Subgroup(pres, *_identity(pres.rank))


@lru_cache(maxsize=None)
def _identity(rank: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    return tuple(tuple(int(t == i) for t in range(rank)) for i in range(rank)), tuple(range(rank))


def smith_normal_form(
    rows: Sequence[Sequence[int]],
) -> tuple[list[int], list[list[int]]]:
    """Smith normal form ``U * A * V = D`` over the integers.

    Returns ``(diag, U)`` with ``U`` unimodular and the diagonal satisfying
    ``d_1 | d_2 | ...`` with all ``d_i >= 0``.  ``U`` travels with the rows:
    each row of ``A`` carries its row of ``U`` after its own entries, so one
    row operation moves both.  Column operations touch only ``A``, and the
    column transform ``V`` is never built.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst -= q * row_src
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] -= q * row[src]

    t = 0
    while t < min(m, n):
        best = None
        for i, j in _iproduct(range(t, m), range(t, n)):
            x = abs(a[i][j])
            if x and (best is None or x < best[0]):
                best = (x, i, j)
                if x == 1:  # no smaller nonzero entry exists
                    break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            swap_cols(t, bj)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, q)
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility of the remaining block by the pivot; a unit
        # pivot divides everything
        p = a[t][t]
        if abs(p) != 1:
            bad = next((i for i in range(t + 1, m)
                        if any(a[i][j] % p for j in range(t + 1, n))), None)
            if bad is not None:
                add_row(bad, t, -1)  # row_t += row_bad
                continue
        if p < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return [a[i][i] for i in range(min(m, n))], [row[n:] for row in a]


def _quotient(
    rank: int, columns: Sequence[Sequence[int]]
) -> list[tuple[int, list[int]]]:
    """Invariant factors of ``Z^rank / <columns>``, each with its row of ``U``.

    Factors equal to 1 are dropped, and the free summands (factor 0) come
    last.
    """
    diag, u = smith_normal_form([[c[i] for c in columns] for i in range(rank)])
    orders = diag + [0] * (rank - len(diag))
    return [(d, row) for d, row in zip(orders, u) if d != 1]


def relative_quotient_invariants(
    big: Subgroup, small: Subgroup
) -> tuple[int, ...]:
    """Invariant factors of ``big / small`` for nested subgroups.

    Each generator of `small` is lifted into the lattice basis of `big`;
    the quotient is then read off the Smith normal form of the lifts, less
    each lift +-e_r and its row r.  The HNF is canonical, so equal columns
    are equal subgroups, with the trivial quotient.
    """
    if big.pres != small.pres:
        raise ValueError("subgroups of different presentations")
    if big.columns == small.columns:
        return ()
    lifts = [big._solve(col) for col in small.columns]
    if None in lifts:
        raise ValueError("subgroups are not nested")
    # column operations with a lift +-e_r split off a factor 1 and clear
    # row r of the other lifts, leaving the rest of the matrix unchanged
    split = {r for y in lifts if sum(map(abs, y)) == 1 for r, c in enumerate(y) if c}
    rows = [r for r in range(big.ncols) if r not in split]
    rest = [[y[r] for r in rows] for y in lifts if sum(map(abs, y)) != 1]
    return tuple(d for d, _ in _quotient(len(rows), rest))


def kernel_basis(row: Sequence[int]) -> list[tuple[int, ...]]:
    """Lattice basis of the kernel of a single linear form on Z^n."""
    n = len(row)
    # column-reduce [row; I]: columns whose row-part hits zero give the kernel
    cols = [[row[j]] + [int(i == j) for i in range(n)] for j in range(n)]
    _eliminate(cols, 0)
    return [tuple(c[1:]) for c in cols if c[0] == 0]


def quotient_presentation(
    pres: GroupPresentation, sub: Subgroup
) -> tuple[GroupPresentation, list[list[int]]]:
    """Presentation of the quotient group, its coordinates named w0, w1,
    ..., and the projection matrix.

    The projection maps old coefficient vectors to new ones by ordinary
    matrix multiplication; coordinates with invariant factor 1 are dropped.
    """
    if sub.pres != pres:
        raise ValueError("subgroup of a different presentation")
    factors = _quotient(pres.rank, sub.columns)
    orders = tuple(d for d, _ in factors)
    names = tuple("w%d" % i for i in range(len(factors)))
    return GroupPresentation(orders, names), [row for _, row in factors]


def project_element(
    target: GroupPresentation, projection: Sequence[Sequence[int]], coeffs: Sequence[int]
) -> tuple[int, ...]:
    """The reduced image in ``target`` of a coefficient vector, reduced or
    not, under the projection, summed over its nonzero coordinates only."""
    entries = _entries(coeffs)
    return target.reduce([sum(row[j] * c for j, c in entries) for row in projection])
