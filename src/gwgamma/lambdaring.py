"""Finitely presented pre-lambda-rings and their operations.

A model is a finitely generated abelian group with a commutative unital
multiplication given by structure constants on basis pairs, an augmentation
(rank) homomorphism to Z, and, for every basis element, the coefficients of
its total lambda-series.  That is enough to evaluate on arbitrary elements:

* ``lambda_total(x, N)``, one call of ``_lambda_totals(m, N)``, is the
  product of the powers lambda_t(b_i)^(c_i) over the coordinates c_i of x,
  so lambda_t(x+y) = lambda_t(x) lambda_t(y) holds by construction;
* ``gamma_total`` / ``gamma_k`` apply the substitution t -> t/(1-t);
* ``psi_k`` evaluates the Newton polynomial p_k at lambda^1(x)..lambda^k(x).

Whether the model is *special* (lambda of a product, lambda of a lambda) is
not an axiom of the data structure; ``verify_special_pair`` checks those
identities on concrete elements through the universal polynomials of
:mod:`gwgamma.symfunc`.  It is the two-element case of the one checker that
``gwgamma special`` runs over all basis pairs of a model on coefficient
tuples: per element lambda_t once and, for an element checked as x, the
checks of lambda^m(lambda^n x) once; per pair lambda_t(x*y) and the checks
of lambda^n(x*y).  The checker and ``psi_k`` fold their polynomials with
``MultiPoly.evaluate`` on sparse entry lists, one ``dot`` per product and
the sum reduced once.

The structure constants are stored once, as sparse integer rows:
``products[i][j]`` lists the nonzero entries (k, c) of b_i * b_j, and
equal products share one tuple.  Ring elements multiply through one
primitive, ``RingModel.dot``, which accumulates a product x*y on a single
integer vector and returns its reduced coefficient tuple.  Its operands are sparse entry lists, the
(index, coefficient) pairs of the nonzero coordinates, so a product costs
nnz(x) * nnz(y) row lengths, whatever the rank.  A product of ring
elements is ``dot`` on their entries, the tuple wrapped in a group element;
every product the filtration forms (a gamma-value times a span column) is
one ``dot``.  Series products read the same rows
a column pair at a time, one integer product of two packed coordinate
columns per nonzero row, and give the sums ``dot`` gives (see
:mod:`gwgamma.series`).
The structural checks of a model are one table, ``_checks``, of named
generators of offending cases: ``validate_model`` reports the first case of
each, and ``gamma_filtration`` refuses on the first of six by name, both
through ``_first_cases``, which keeps each check's first case in the record
of the model's content.

What the checks and the filtration derive from a model depends on its
content alone: the group with its basis labels, the unit, the products, the
augmentation, the hyperbolic classes, the truncation and the basis
lambda-columns (``_content``), never the name.  So it is kept in one record
per content, a dict (``_Record``) in which each module keeps its own keys,
looked up on first use in a ``weakref.WeakValueDictionary`` by that key and
held by each model in its ``_derived`` slot: every live model with equal
content shares it, and it goes, with its registry entry, when the last of
them does.  Builtins that are one ring under two names (P^2 and P^3,
``gw_punctured_a5`` at every f) and a model file renamed from a builtin
are checked and filtered once.  A model is immutable once built, so its
key is fixed by then; building a model computes no key.

Each basis lambda-series is stored once, as the integer columns of
lambda_t(b_i) at N >= 1, the truncation order, each a tuple (``_stored``),
which the content key holds as they are.  A model file gives its
coefficients in degrees 1..D_b, D_b at most N, trailing zero degrees
dropped; the columns hold zeros past D_b.  Series that genuinely
terminate (line elements and their shifts) are stored in full;
non-terminating ones are stored out to N and all derived operations stay
below it.  ``lambda_on_basis`` derives the group elements of degrees
1..D_b from the columns on every read, and keeps none.
``basis_lambda_series(i, order)`` hands out a new series over lists cut
from those columns on every call, so the model holds no series and no power
table: nothing on it points back at it, and threads that share a model
share no memo of a series.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .abelian import GroupElement, GroupPresentation, _entries
from .series import TruncSeries, _last_degree
from .symfunc import (
    MultiPoly,
    compose_universal,
    newton_psi,
    product_universal,
)

DEFAULT_TRUNCATION = 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    """Outcome of a batch of named identity checks."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.ok:
                return c
        return None

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            suffix = ": %s" % c.detail if (c.detail and not c.ok) else ""
            out.append("%s %s%s" % (status, c.name, suffix))
        return out


class RingModel:
    """Structure constants + augmentation + basis lambda-series."""

    def __init__(
        self,
        name: str,
        group: GroupPresentation,
        unit: Sequence[int],
        mul: Mapping[tuple[int, int], Sequence[int]],
        aug: Sequence[int],
        lambda_on_basis: Sequence[Sequence[Sequence[int]]],
        hyperbolic: Iterable[Sequence[int]] | None = None,
        trunc: int = DEFAULT_TRUNCATION,
    ):
        if isinstance(trunc, bool) or not isinstance(trunc, int):
            raise ValueError("truncation order %r is not an integer" % (trunc,))
        if trunc < 1:
            raise ValueError("truncation order %r is below 1" % (trunc,))
        self.name = name
        self.group = group
        self.trunc = trunc
        self.unit = group.element(unit)
        # the unit's nonzero (index, coefficient) pairs, read by every power
        self._unit_entries = _entries(self.unit.coeffs)
        if len(aug) != group.rank:
            raise ValueError("augmentation vector of wrong length")
        self.aug = tuple(aug)
        rank = group.rank
        rows = [[()] * rank for _ in range(rank)]
        seen = {}
        entries = {}  # equal products share one entry tuple
        for (i, j), coeffs in mul.items():
            if not (0 <= i < rank and 0 <= j < rank):
                raise ValueError("product index out of range")
            key = (i, j) if i <= j else (j, i)
            val = group.reduce(coeffs)
            if seen.setdefault(key, val) != val:
                raise ValueError("conflicting products for basis pair %r" % (key,))
            if val not in entries:
                entries[val] = tuple((k, c) for k, c in enumerate(val) if c)
            rows[i][j] = rows[j][i] = entries[val]
        # products[i][j]: the nonzero entries (k, c) of b_i * b_j
        self.products = tuple(tuple(r) for r in rows)
        self._zero = (0,) * rank  # the sum of a dot that meets no row
        if len(lambda_on_basis) != group.rank:
            raise ValueError("lambda-series list of wrong length")
        # _basis_columns[i]: the integer columns of lambda_t(b_i) at the
        # truncation, its one stored form (``_stored``), built by
        # ``TruncSeries`` from the given rows less the trailing ones that
        # reduce to zero; equal rows (a builtin's empty lists) share one dict
        self._basis_columns: list[dict[int, tuple[int, ...]]] = []
        built = {}
        for i, coeff_list in enumerate(lambda_on_basis):
            rows = tuple(map(tuple, coeff_list))
            while rows and not any(group.reduce(rows[-1])):
                rows = rows[:-1]
            if len(rows) > trunc:
                raise ValueError("lambda-series of basis element %d: %d terms, more "
                                 "than trunc %d" % (i, len(rows), trunc))
            if rows not in built:
                built[rows] = _stored(TruncSeries(self, [self.unit.coeffs, *rows], trunc))
            self._basis_columns.append(built[rows])
        # the record of what is derived from the content alone, set on first
        # use (``_derived``)
        self._derived: _Record | None = None
        self.hyperbolic = (
            None
            if hyperbolic is None
            else tuple(group.element(h) for h in hyperbolic)
        )

    def element(self, coeffs: Sequence[int]) -> "RingElement":
        return RingElement(self, self.group.element(coeffs))

    @property
    def unit_element(self) -> "RingElement":
        return RingElement(self, self.unit)

    @property
    def zero_element(self) -> "RingElement":
        return RingElement(self, self.group.zero())

    def basis_element(self, i: int) -> "RingElement":
        return RingElement(self, self.group.basis_element(i))

    def basis_elements(self) -> tuple["RingElement", ...]:
        return tuple(self.basis_element(i) for i in range(self.group.rank))

    def dot(self, xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]]) -> tuple[int, ...]:
        """The product x*y of two sparse entry lists, each the (index,
        coefficient) pairs of the nonzero coordinates of x or y, accumulated
        on one integer vector and returned as its reduced coefficient tuple.
        The vector is allocated at the first nonempty structure-constant row;
        a product that meets none is the model's cached zero tuple."""
        acc = None
        products = self.products
        for i, xi in xs:
            row = products[i]
            for j, yj in ys:
                entries = row[j]
                if entries:
                    if acc is None:
                        acc = [0] * self.group.rank
                    c = xi * yj
                    for k, s in entries:
                        acc[k] += c * s
        return self._zero if acc is None else self.group.reduce(acc)

    @cached_property
    def _constant_bits(self) -> int:
        """The bit length of the sum of |c| over the entries (k, c) of every
        ordered basis pair's product: the factor by which a sum of products
        can exceed the largest product of two coordinates, per term."""
        return sum(abs(c) for row in self.products for entries in row
                   for _, c in entries).bit_length()

    def augmentation(self, x: GroupElement) -> int:
        return sum(a * c for a, c in zip(self.aug, x.coeffs))

    @cached_property
    def _unit_neutral(self) -> bool:
        unit = self._unit_entries
        return all(self.dot(unit, _entries(b.coeffs)) == b.coeffs for b in self.group.basis())

    def basis_lambda_series(self, i: int, order: int) -> TruncSeries:
        """lambda_t(b_i) through the order: a new series over lists cut from
        the stored columns after the order; the model keeps no series."""
        if order < 0:
            raise ValueError("order must be non-negative")
        if order > self.trunc:
            raise ValueError(
                "order %d beyond model truncation %d" % (order, self.trunc)
            )
        cut = ((k, list(col[:order + 1])) for k, col in self._basis_columns[i].items())
        return TruncSeries._of(self, order, {k: col for k, col in cut if any(col)})

    @property
    def lambda_on_basis(self) -> tuple[tuple[GroupElement, ...], ...]:
        """The basis lambda-series as group elements in degrees 1..D_b, D_b
        the last nonzero degree of lambda_t(b_i): read off the stored
        columns by ``TruncSeries.rows`` on every read, never kept."""
        out = []
        for i, cols in enumerate(self._basis_columns):
            last = max(map(_last_degree, cols.values()), default=0)
            rows = self.basis_lambda_series(i, last).rows()[1:]
            out.append(tuple(GroupElement(self.group, r) for r in rows))
        return tuple(out)


def _stored(s: TruncSeries) -> dict[int, tuple[int, ...]]:
    """The columns of a basis lambda-series in their one stored form, each a
    tuple, in coordinate order as ``TruncSeries`` builds and substitutes
    them."""
    return {k: tuple(col) for k, col in s._columns.items()}


@dataclass(frozen=True)
class RingElement:
    """Group element tagged with its ring model; supports ring arithmetic."""

    model: RingModel
    value: GroupElement

    def _check(self, other: "RingElement") -> None:
        if self.model is not other.model:
            raise ValueError("elements from different models")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.model, self.value + other.value)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.model, self.value - other.value)

    def __neg__(self) -> "RingElement":
        return RingElement(self.model, -self.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.model, other * self.value)
        if isinstance(other, RingElement):
            self._check(other)
            m = self.model
            product = m.dot(_entries(self.value.coeffs), _entries(other.value.coeffs))
            return RingElement(m, GroupElement(m.group, product))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return RingElement(self.model, other * self.value)
        return NotImplemented

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            raise ValueError("negative ring power")
        out = self.model.unit_element
        for _ in range(n):
            out = out * self
        return out

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero


def _lambda_totals(m: RingModel, order: int):
    """lambda_t through the order of each coefficient tuple it is given: the
    product of the powers lambda_t(b_i)^(c_i), in increasing i, each basis
    series (with its power table) and each power (i, c_i) built once across
    the calls and held by the function alone.  Raises ValueError on an
    order that is no int or is negative, and when the unit is not
    multiplicatively neutral: the product of the powers would then not start
    at the unit."""
    if type(order) is not int:
        raise ValueError("order %r is not an integer" % (order,))
    if order < 0:
        raise ValueError("order must be non-negative")
    if not m._unit_neutral:
        raise ValueError("model %s: unit is not multiplicatively neutral" % m.name)
    series = cache(lambda i: m.basis_lambda_series(i, order))
    power = cache(lambda i, c: series(i).pow(c))

    def total(coeffs: Sequence[int]) -> TruncSeries:
        out = None
        for i, c in enumerate(coeffs):
            if c:
                out = power(i, c) if out is None else out * power(i, c)
        return TruncSeries(m, [m.unit.coeffs], order) if out is None else out

    return total


def lambda_total(x: RingElement, order: int | None = None) -> TruncSeries:
    """Total lambda-series of x, exact through the requested order: the
    one-element case of ``_lambda_totals``, whose ValueErrors it raises."""
    m = x.model
    return _lambda_totals(m, m.trunc if order is None else order)(x.value.coeffs)


def gamma_total(x: RingElement, order: int | None = None) -> TruncSeries:
    return lambda_total(x, order).substitute_geometric()


def lambda_k(x: RingElement, k: int) -> RingElement:
    if type(k) is not int:
        raise ValueError("k %r is not an integer" % (k,))
    if k == 0:
        return x.model.unit_element
    return x.model.element(lambda_total(x, k).rows()[k])


def gamma_k(x: RingElement, k: int) -> RingElement:
    if type(k) is not int:
        raise ValueError("k %r is not an integer" % (k,))
    if k == 0:
        return x.model.unit_element
    return x.model.element(gamma_total(x, k).rows()[k])


def _evaluate(m: RingModel, poly: MultiPoly, values: list) -> tuple:
    """``poly.evaluate`` at sparse entry lists with each product one ``dot``,
    its sum reduced once to a coefficient tuple."""
    total = poly.evaluate(values, m._unit_entries,
                          lambda a, b: _entries(m.dot(a, b)))
    return m.group.reduce([total.get(k, 0) for k in range(m.group.rank)])


def psi_k(x: RingElement, k: int) -> RingElement:
    """Adams operation: the Newton polynomial p_k at the coefficient tuples
    of lambda^1(x)..lambda^k(x)."""
    if type(k) is not int:
        raise ValueError("k %r is not an integer" % (k,))
    if k < 1:
        raise ValueError("k must be positive")
    rows = lambda_total(x, k).rows()
    return x.model.element(_evaluate(x.model, newton_psi(k), [_entries(r) for r in rows[1:]]))


def _checks(m: RingModel) -> tuple[tuple[str, Iterator[str]], ...]:
    """Each structural check of a model, in report order: its name and a
    generator of its offending cases, which computes nothing until it is
    read, on the basis products and the stored lambda-series columns; each
    is read once per content, by ``_first_cases``."""
    group, aug, rows, trunc = m.group, m.aug, m.products, m.trunc
    rank, orders = group.rank, group.orders
    b = [((i, 1),) for i in range(rank)]
    torsion = [(i, o) for i, o in enumerate(orders) if o]
    stored = m._basis_columns

    def unit():
        d = m.augmentation(m.unit)
        if d != 1:
            yield "d(1) = %d" % d

    def neutral():
        if not m._unit_neutral:
            yield ""

    def bracketings():
        # (b_i*b_j)*b_k against b_i*(b_j*b_k), and b_j*(b_i*b_k) when
        # i < j < k: each one dot of a basis element with a stored row
        for i in range(rank):
            for j in range(i, rank):
                for k in range(j, rank):
                    left = m.dot(rows[i][j], b[k])
                    for p, q in ((i, j), (j, i)) if i < j < k else ((i, j),):
                        if m.dot(b[p], rows[q][k]) != left:
                            yield "(b%d*b%d)*b%d != b%d*(b%d*b%d)" % (i, j, k, p, q, k)

    def torsion_products():
        # o_i b_i b_j = 0 exactly when o_i c = 0 mod o_k at each entry (k, c)
        # of b_i * b_j, c = 0 where o_k = 0
        for i, o in torsion:
            if aug[i]:
                yield "torsion basis element %d has nonzero rank" % i
            for j in range(rank):
                if any(o * c % orders[k] if orders[k] else c for k, c in rows[i][j]):
                    yield "order %d of b%d does not kill b%d*b%d" % (o, i, i, j)

    def homomorphism():
        for i, row in enumerate(rows):
            for j in range(i, rank):
                got = sum(aug[k] * c for k, c in row[j])
                if got != aug[i] * aug[j]:
                    yield "d(b%d*b%d) = %d != %d" % (i, j, got, aug[i] * aug[j])

    def lambda_one():
        for i, cols in enumerate(stored):
            row = tuple(cols[k][1] if k in cols else 0 for k in range(rank))
            if row != group.basis_element(i).coeffs:
                yield "lambda^1(b%d) != b%d" % (i, i)

    def lambda_augmentations():
        # every degree 1..trunc, the zero ones past the last stored degree too
        for i, a in enumerate(aug):
            got = [0] * (trunc + 1)
            for q, col in stored[i].items():
                got = [g + aug[q] * v for g, v in zip(got, col)]
            want = 1  # C(a, k) by C(a, k) k = C(a, k-1) (a-k+1), exact
            for k in range(1, trunc + 1):
                want = want * (a - k + 1) // k
                if got[k] != want:
                    yield "d(lambda^%d(b%d)) = %d != C(%d,%d)" % (k, i, got[k], a, k)

    def torsion_series():
        unit_series = TruncSeries(m, [m.unit.coeffs], trunc)
        for i, o in torsion:
            if m.basis_lambda_series(i, trunc).pow(o) != unit_series:
                yield "lambda_t(b%d)^%d != 1" % (i, o)

    return (
        ("augmentation(unit) == 1", unit()),
        ("unit is multiplicatively neutral", neutral()),
        ("multiplication associative on basis", bracketings()),
        ("products respect torsion orders", torsion_products()),
        ("augmentation is a ring homomorphism", homomorphism()),
        ("lambda^1 is the identity on basis", lambda_one()),
        ("augmentation compatible with lambda-series", lambda_augmentations()),
        ("lambda-series respect torsion orders", torsion_series()),
    )


class _Record(dict):
    """What is derived from a model's content alone, shared by every live
    model with that content (``_derived``), each module under keys of its
    own: "checks", the first case of each check (``_first_cases``), and
    the keys of :mod:`gwgamma.filtration`."""

    __slots__ = ("__weakref__",)


# the record of each content some live model holds, by ``_content``
_RECORDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _content(m: RingModel) -> tuple:
    """Everything a check or the filtration reads of m, the name aside: the
    group (orders and basis labels), the unit, the products, the
    augmentation, the hyperbolic classes, the truncation and the basis
    lambda-columns, the stored tuples themselves, each of length trunc + 1
    (``_stored``)."""
    hyperbolic = None if m.hyperbolic is None else tuple(h.coeffs for h in m.hyperbolic)
    columns = tuple(tuple(cols.items()) for cols in m._basis_columns)
    return m.group, m.unit.coeffs, m.products, m.aug, hyperbolic, m.trunc, columns


def _derived(m: RingModel) -> _Record:
    """The record of m's content, looked up once per model and kept in its
    ``_derived`` slot.  A model is immutable once built, so its content
    key is fixed by then.  ``setdefault`` makes two racing lookups agree
    on one record, or leaves each model a correct record of its own."""
    record = m._derived
    if record is None:
        record = m._derived = _RECORDS.setdefault(_content(m), _Record())
    return record


def _first_cases(m: RingModel, names: Iterable[str]) -> Iterator[tuple[str, str | None]]:
    """Each named check of ``_checks`` and its first offending case or None,
    in the order named, each computed when first reached and kept in the
    record of m's content: a check runs at most once per content, and a
    case names basis indices, never the model."""
    memo, checks = _derived(m).setdefault("checks", {}), cache(lambda: dict(_checks(m)))
    for name in names:
        if name not in memo:
            memo[name] = next(checks()[name], None)
        yield name, memo[name]


def validate_model(m: RingModel) -> Report:
    """Structural sanity of a model: the first offending case of each check
    of ``_checks``, each check run at most once per content."""
    first = _first_cases(m, [name for name, _ in _checks(m)])
    return Report(tuple(CheckResult(name, case is None, case or "") for name, case in first))


_COMPOSE_PAIRS = ((2, 2), (2, 3), (3, 2))


def verify_special_pair(x: RingElement, y: RingElement, bound: int = 3) -> Report:
    """Check the special lambda-ring identities on a concrete pair.

    lambda^n(x*y) against the universal product polynomial for n <= bound,
    and lambda^m(lambda^n(x)) against the universal composition polynomial
    for each (m, n) of ``_COMPOSE_PAIRS``: the one-pair case of the checker
    that ``gwgamma special`` runs on every basis pair.
    """
    if type(bound) is not int:
        raise ValueError("bound %r is not an integer" % (bound,))
    if x.model is not y.model:
        raise ValueError("elements from different models")
    return next(_special_reports((x, y), ((0, 1),), bound))


def _special_reports(
    elements: Sequence[RingElement], pairs: Sequence[tuple[int, int]], bound: int
) -> Iterable[Report]:
    """The ``verify_special_pair`` report of x = elements[i], y = elements[j]
    for each index pair (i, j), yielded in order: the product checks, then
    x's composition checks.

    lambda_t of each element is built once and read once, as sparse entries
    of its ``TruncSeries.rows``; the composition checks of each element run
    once, the first time it is an x, and a pair adds only lambda_t(x*y) and
    its ``bound`` product checks, all from one ``_lambda_totals`` per order,
    so each basis power is built once.  ``MultiPoly.evaluate`` folds the
    polynomials with no ring element per coefficient or product.
    """
    need = max([bound] + [m * n for m, n in _COMPOSE_PAIRS])
    firsts = {i for i, _ in pairs}
    series: dict[int, tuple[list, list]] = {}  # i: rows and their entries
    totals = cache(_lambda_totals)  # one per model and order
    compositions: dict[int, tuple[CheckResult, ...]] = {}

    def lam(i: int, order: int) -> tuple[list, list]:
        # a pair's x is built to the order its compositions need, even when
        # it comes first as a y, unless that is beyond the truncation: then
        # each role asks for its own order, and raises where it would alone
        s = series.get(i)
        if s is None or len(s[0]) <= order:
            e = elements[i]
            if i in firsts and need <= e.model.trunc:
                order = need
            rows = totals(e.model, order)(e.value.coeffs).rows()
            s = series[i] = rows, [_entries(r) for r in rows]
        return s

    def check(name: str, lhs: tuple, rhs: tuple) -> CheckResult:
        if lhs == rhs:  # equal sides print alike
            side = repr(lhs)
            return CheckResult(name, True, "lhs %s rhs %s" % (side, side))
        return CheckResult(name, False, "lhs %r rhs %r" % (lhs, rhs))

    product_checks = [
        ("lambda^%d(x*y) == P_%d(lambda x, lambda y)" % (n, n), n, product_universal(n))
        for n in range(1, bound + 1)
    ]
    compose_checks = [
        ("lambda^%d(lambda^%d(x)) == P_%d,%d(lambda x)" % (mm, nn, mm, nn), mm, nn,
         compose_universal(mm, nn))
        for mm, nn in _COMPOSE_PAIRS
    ]
    for i, j in pairs:
        x = elements[i]
        m = x.model
        (rows_x, lam_x), (_, lam_y) = lam(i, need), lam(j, bound)
        lam_xy = totals(m, bound)((x * elements[j]).value.coeffs).rows()
        checks = tuple(
            check(name, lam_xy[n], _evaluate(m, poly, lam_x[1:n + 1] + lam_y[1:n + 1]))
            for name, n, poly in product_checks
        )
        if i not in compositions:
            compositions[i] = tuple(
                check(name, totals(m, mm)(rows_x[nn]).rows()[mm],
                      _evaluate(m, poly, lam_x[1:mm * nn + 1]))
                for name, mm, nn, poly in compose_checks
            )
        yield Report(checks + compositions[i])
