"""Symmetric polynomials over Z and the universal lambda-ring identities.

The workhorse is a sparse multivariate polynomial with integer coefficients.
Its ``evaluate`` is the one fold of a polynomial at values in a ring: the
values are sparse entry lists and the caller supplies the product, which
``gwgamma.lambdaring`` takes to be one ``RingModel.dot`` both for ``psi_k``
and for the ``special`` checker.  On top of it sit the universal
polynomials that make the lambda-operation identities checkable on concrete
ring elements, all written in the elementary symmetric functions
e_i = lambda^i(x):

* ``newton_psi(k)``   -- the power sum p_k = psi^k(x) in e_1..e_k (Newton's
  recursion),
* ``product_universal(n)`` -- P_n with lambda^n(x*y) = P_n(lambda(x); lambda(y)),
* ``compose_universal(m, n)`` -- P_{m,n} with lambda^m(lambda^n(x)) =
  P_{m,n}(lambda(x)).

In the universal lambda-ring the Adams operations psi^k are ring maps that
commute with every lambda^n, and psi^i psi^k = psi^(ik).  So the Adams
operations of x*y are p_k(e) p_k(f), those of lambda^n(x) are
lambda^n(psi^k x), whose own Adams operations are p_k, p_2k, ..., p_nk, and
Newton's identity j lambda^j = sum_{i=1..j} (-1)^(i-1) psi^i lambda^(j-i)
turns Adams operations back into lambda-operations (Macdonald, *Symmetric
Functions and Hall Polynomials*, section I.2).  Its divisions by j are
exact over Z, and each is checked.  The results are memoized by argument
value and type, so a degree whose type is not ``int`` (True, 2.0) reaches its
refusal and never gets the polynomial cached for an equal int; the default
bounds (n <= 4 for products, m*n <= 6 for composition) cap the sizes the
``special`` check asks for.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

PRODUCT_DEGREE_BOUND = 4
COMPOSE_WEIGHT_BOUND = 6


class MultiPoly:
    """Sparse polynomial in a fixed number of variables, integer coefficients."""

    __slots__ = ("nvars", "terms", "_chains")

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
        # evaluate's prefix keys per term, (c, keys), built at its first call
        self._chains = None

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

    def _same_ring(self, other: "MultiPoly") -> None:
        if other.nvars != self.nvars:
            raise ValueError(
                "polynomials in %d and %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._same_ring(other)
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
        self._same_ring(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def evaluate(self, values: Sequence, unit: list, times) -> dict:
        """The value at `values`, sparse entry lists of (index, coefficient)
        pairs, as the unreduced sum {index: coefficient}; `unit` is the unit's
        entry list and `times(a, b)` the entry list of a*b.

        Each monomial is the left fold v * v * w * ... of its values.  The
        terms share their prefixes, keyed by their variable indices (built
        once per polynomial) and multiplied once per call.  A fold starts
        from its first value and passes over a factor equal to `unit`; an
        empty (zero) prefix or value drops every term it begins.  That gives
        the full fold's value when `times` is bilinear and `unit` is neutral
        on both sides, as in every model that passes ``lambda_total``.
        """
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        if self._chains is None:
            indices = ((c, tuple(i for i, e in enumerate(exps) for _ in range(e)))
                       for exps, c in self.terms.items())
            self._chains = [(c, [idx[:s] for s in range(1, len(idx) + 1)]) for c, idx in indices]
        prefixes: dict = {}  # None marks a zero prefix
        total: dict = {}
        for c, keys in self._chains:
            term = unit
            for key in keys:
                if key not in prefixes:
                    v = values[key[-1]]
                    if not v:
                        prefixes[key] = None
                    elif len(key) == 1:
                        prefixes[key] = v
                    elif v == unit:
                        prefixes[key] = term
                    else:
                        prefixes[key] = times(term, v) or None
                term = prefixes[key]
                if term is None:
                    break
            else:
                for k, a in term:
                    total[k] = total.get(k, 0) + c * a
        return total


@lru_cache(maxsize=None, typed=True)
def newton_psi(k: int) -> MultiPoly:
    """Power sum p_k written in e_1..e_k via Newton's recursion."""
    if type(k) is not int:
        raise ValueError("k %r is not an integer" % (k,))
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


def _lift(p: MultiPoly, nvars: int, offset: int) -> MultiPoly:
    """p with its variables moved to positions offset.. of nvars variables."""
    pad = (0,) * (nvars - offset - p.nvars)
    return MultiPoly(nvars, {(0,) * offset + e + pad: c for e, c in p.terms.items()})


def _lambda_from_psi(psis: Sequence[MultiPoly]) -> MultiPoly:
    """lambda^n of an element of the universal lambda-ring, n = len(psis).

    `psis` holds the element's Adams operations psi^1..psi^n, all in the
    same variables.  Newton's identity gives lambda^j as the quotient of
    sum_{i=1..j} (-1)^(i-1) psi^i lambda^(j-i) by j; ArithmeticError when a
    division leaves a remainder, that is when `psis` are not the Adams
    operations of an integral element.
    """
    nvars = psis[0].nvars
    lams = [MultiPoly.constant(nvars, 1)]
    for j in range(1, len(psis) + 1):
        acc = MultiPoly(nvars)
        for i in range(1, j + 1):
            term = psis[i - 1] * lams[j - i]
            acc = acc + term if i % 2 else acc - term
        terms = {}
        for exps, c in acc.terms.items():
            q, r = divmod(c, j)
            if r:
                raise ArithmeticError("lambda^%d is not integral" % j)
            terms[exps] = q
        lams.append(MultiPoly(nvars, terms))
    return lams[-1]


@lru_cache(maxsize=None, typed=True)
def product_universal(n: int) -> MultiPoly:
    """P_n in 2n variables e_1..e_n, f_1..f_n.

    Specializing e_i = lambda^i(x) and f_j = lambda^j(y) yields
    lambda^n(x*y) in any special lambda-ring.

    >>> sorted(product_universal(2).terms.items())  # e1^2 f2 + e2 f1^2 - 2 e2 f2
    [((0, 1, 0, 1), -2), ((0, 1, 2, 0), 1), ((2, 0, 0, 1), 1)]
    """
    if type(n) is not int:
        raise ValueError("n %r is not an integer" % (n,))
    if n < 1:
        raise ValueError("n must be positive")
    if n > PRODUCT_DEGREE_BOUND:
        raise ValueError("degree bound exceeded for product_universal")
    nv = 2 * n
    return _lambda_from_psi([
        _lift(newton_psi(k), nv, 0) * _lift(newton_psi(k), nv, n)
        for k in range(1, n + 1)
    ])


@lru_cache(maxsize=None, typed=True)
def compose_universal(m: int, n: int) -> MultiPoly:
    """P_{m,n} in mn variables e_1..e_{mn}.

    Specializing e_i = lambda^i(x) yields lambda^m(lambda^n(x)) in any
    special lambda-ring.
    """
    for name, v in (("m", m), ("n", n)):
        if type(v) is not int:
            raise ValueError("%s %r is not an integer" % (name, v))
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m * n > COMPOSE_WEIGHT_BOUND:
        raise ValueError("weight bound exceeded for compose_universal")
    nv = m * n
    # psi^k(lambda^n x) = lambda^n(psi^k x), and psi^i(psi^k x) = p_ik
    return _lambda_from_psi([
        _lambda_from_psi([_lift(newton_psi(i * k), nv, 0) for i in range(1, n + 1)])
        for k in range(1, m + 1)
    ])

