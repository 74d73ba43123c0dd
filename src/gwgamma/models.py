"""Builtin Grothendieck-Witt ring models.

Every constructor follows one recipe and one assembly path: it gives the
additive presentation, unit, products and augmentation once, plus the list
of the gamma-polynomials of the basis classes as they are: None for a line
class b (the base classes 1 and L), whose lambda-series is 1 + b t, or the
coordinate rows of degrees 1..D of the terminating gamma-series of a
rank-zero class, all of rank zero.  The private helper ``_model`` alone
builds the one ring of the builtin, pads or cuts each polynomial to the
truncation, substitutes t -> t/(1+t) and installs the columns of the
lambda-series on the ring, so that no build inverts a series.  With D the
augmentation d of each coefficient, D(lambda_t(b)) is then (1+t)^d(b) for
each basis class b, as the filtration requires; associativity, which it
does not check for its cost, holds as each builtin's products are those of
a commutative ring.

* ``gw_point``      -- the base field, C (integers, binomial lambda) or R
                       (Z[L]/(L^2-1) with L the class of <-1>); built as
                       P^0, since GW(P^0) = GW(base);
* ``gw_projective`` -- projective r-space over either base.  Writing
                       a = H(O(1)) - H(1) and rho = ceil(r/2), the additive
                       group is GW(base) plus one copy of Z per power a^k,
                       where a^rho is free for even r, of order two for
                       r = 1 mod 4, and absent for r = 3 mod 4; higher
                       powers vanish.  phi * a^k = rank(phi) a^k.
* ``gw_punctured_line``  -- the affine line minus a point over R: one extra
                       generator eps^ = eps - 1 with eps a line element,
                       eps^2 = 1, so eps^*eps^ = -2eps^ and L*eps^ = -eps^;
* ``gw_punctured_a5``    -- odd-dimensional affine space minus a point over
                       C, reduced part Z + Z/2*eps^ with eps^2 = 0; the
                       gamma-series coefficients C(2^(f-1), i) * 2^(i-f)
                       taken mod 2 give 1 + eps^ t + eps^ t^2 for every f;
* ``gw_surface_cxp1``    -- the product of a smooth curve with s two-torsion
                       line bundle classes and the projective line.

The lambda-structure is special, so by the splitting principle (Fulton and
Lang, Riemann-Roch Algebra, Ch. I and III) the gamma-series of a line class
l minus one and of a hyperbolic shift H(M) - H(1) terminate:

    gamma_t(l - 1)         = 1 + (l - 1) t,
    gamma_t(H(M) - H(1))   = 1 + x t - x t^2,   x = H(M) - H(1).

The first gives the punctured line's eps^ and the surfaces' a_j, the second
the projective twisted classes and the surfaces' b, c and d_i.  Both equal
the quotients lambda_t(l) / lambda_t(1) and lambda_t(H(M)) / lambda_t(H(1))
of terminating lambda-series, the second since H(M) splits into the line
classes M and -M and e x = x for e the class of <-1>; the tests keep those
quotients as the oracle.

Each public constructor is interned (``_interned``): calls with equal
arguments share one model while anyone holds it, which spares a build; what
is derived from its content is shared through the content's record
(``lambdaring._derived``) whether or not the models are one.

The twisted classes a_k = H(O(k)) - H(1) follow the recursion

    a_0 = 0,  a_1 = a,  a_k = (a + 2) a_{k-1} - a_{k-2} + 2a,

so a_k = a^k + sum_(j<k) c_kj a^j with integers c_kj, and as gamma_t is
exponential each power follows from its twisted class and the lower powers:

    gamma_t(a^k) = gamma_t(a_k) prod_(j<k) gamma_t(a^j)^(-c_kj).

Every a_j lies in the ideal (a), and (a)^(top+1) = 0 for the top power
a^top, so gamma_t(a^k) is a polynomial of degree at most 2 top.  It is
computed at order 2 top, exactly, and handed over as it is; ``_model`` pads
or cuts it to the truncation.  The polynomials depend only on the block
Z[a]/(a^(top+1)) and the order of a^top, not on the base (L acts as 1 on
(a)) nor on r beyond them, so ``_block_gammas``, a ``functools.cache``,
computes them once per block and process.
"""

from __future__ import annotations

import functools
import inspect
import weakref

from .abelian import GroupPresentation
from .lambdaring import (
    DEFAULT_TRUNCATION,
    RingElement,
    RingModel,
    _stored,
    lambda_total,
)
from .series import TruncSeries


def _model(name, group, unit, mul, aug, gammas, hyperbolic, trunc) -> RingModel:
    """Assemble a builtin from its ring data and its basis gamma-polynomials.

    ``gammas`` lists per basis element b None for a line class (lambda_t(b)
    = 1 + b t) or the rows of gamma_t(b) in degrees 1..D, here padded or cut
    to ``trunc`` and substituted t -> t/(1+t) on the builtin's one ring,
    built with empty lambda-series.  The columns of the lambda-series
    become the ring's one stored form of them (``_stored``).
    """
    ring = RingModel(name, group, unit, mul, aug, [[]] * group.rank, hyperbolic, trunc)
    ring._basis_columns = [_stored(
        TruncSeries(ring, [unit, _basis_vec(group.rank, i)], trunc) if rows is None
        else TruncSeries(ring, [unit, *rows], trunc).substitute_alternating())
        for i, rows in enumerate(gammas)]
    return ring


def _interned(build):
    """Intern a builtin constructor: a call whose arguments, defaults applied,
    equal those of a call whose model is still held returns that model.

    The models are kept in a ``weakref.WeakValueDictionary``, so one lives
    while anyone holds it and no size bound is needed; a model holds no
    reference to itself, so it is freed when the last holder drops it.  A
    model is immutable once built, so every caller may share it; the intern
    spares a build, the content's record shares the checks and the
    filtration.  A call that raises caches nothing; ``__wrapped__`` is the
    uncached build.
    """
    signature = inspect.signature(build)
    models = weakref.WeakValueDictionary()

    @functools.wraps(build)
    def interned(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        # the type too, so that r=2.0 or r=True is not the model of r=2 or r=1
        key = tuple((v, type(v)) for v in bound.arguments.values())
        try:
            model = models.get(key)
        except TypeError:  # an unhashable argument: the build alone decides
            return build(*args, **kwargs)
        if model is None:
            model = models[key] = build(*args, **kwargs)
        return model

    return interned


def _basis_vec(rank: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(rank))


@_interned
def gw_point(base: str = "C", trunc: int = DEFAULT_TRUNCATION) -> RingModel:
    return _projective(base, 0, trunc)


def projective_top_power(r: int) -> int:
    """Largest k with a^k != 0 in the projective-space model."""
    rho = (r + 1) // 2
    return rho - 1 if r % 4 == 3 else rho


def twisted_hyperbolic_classes(model: RingModel, count: int) -> list[RingElement]:
    """Classes a_k = H(O(k)) - H(1) for k = 0..count via the recursion."""
    a = model.basis_element(list(model.group.names).index("a"))
    one = model.unit_element
    out = [model.zero_element, a]
    while len(out) <= count:
        prev, prev2 = out[-1], out[-2]
        out.append((a + 2 * one) * prev - prev2 + 2 * a)
    return out[: count + 1]


@_interned
def gw_projective(
    base: str = "C", r: int = 1, trunc: int = DEFAULT_TRUNCATION
) -> RingModel:
    if type(r) is not int:
        raise ValueError("r %r is not an integer" % (r,))
    if not 1 <= r <= 12:
        raise ValueError("r must lie in 1..12")
    return _projective(base, r, trunc)


def _projective(base: str, r: int, trunc: int) -> RingModel:
    """GW of projective r-space over the base; r = 0 gives the base itself."""
    top = projective_top_power(r)
    order = 2 if r % 4 == 1 else 0
    group, unit, mul = _projective_ring(base, top, order)
    rank = group.rank
    nb = rank - top
    # the class of <-1> is the last base basis element: 1 over C, L over R
    h1 = tuple(u + d for u, d in zip(unit, _basis_vec(rank, nb - 1)))
    # the block rows with a zero L coordinate after one over R
    # (``_block_gammas``); a point (top = 0) has no class a
    pad = (0,) * (nb - 1)
    powers = [[row[:1] + pad + row[1:] for row in rows]
              for rows in (_block_gammas(top, order) if top else ())]
    name = "gw_projective(r=%d,base=%s)" % (r, base) if r else "gw_point(base=%s)" % base
    return _model(
        name, group, unit, mul, (1,) * nb + (0,) * top, [None] * nb + powers,
        [h1] + [_basis_vec(rank, k) for k in range(nb, rank)], trunc,
    )


def _projective_ring(base: str, top: int, order: int) -> tuple:
    """The group, unit and products of GW(base) plus one class per power
    a..a^top, the top one of the given order: a^i a^j = a^(i+j), zero past
    the top power, and phi a^k = rank(phi) a^k."""
    if base == "C":
        base_names = ("one",)
    elif base == "R":
        base_names = ("one", "L")
    else:
        raise ValueError("base must be 'C' or 'R'")
    nb = len(base_names)
    names = base_names + tuple("a" if k == 1 else "a%d" % k for k in range(1, top + 1))
    rank = len(names)
    group = GroupPresentation((0,) * (rank - 1) + (order,), names)
    unit = _basis_vec(rank, 0)
    mul = {(0, i): _basis_vec(rank, i) for i in range(rank)}
    if base == "R":
        mul[(1, 1)] = unit
        for k in range(nb, rank):
            mul[(1, k)] = _basis_vec(rank, k)
    for i in range(1, top + 1):
        for j in range(i, top + 1 - i):
            mul[(nb + i - 1, nb + j - 1)] = _basis_vec(rank, nb + i + j - 1)
    return group, unit, mul


@functools.cache
def _block_gammas(top: int, order: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The rows of degrees 1..2 top of gamma_t(a^k) for k = 1..top, in the
    coordinates (one, a, ..., a^top) of the block Z[a]/(a^(top+1)), a^top
    of the given order, computed once per process.

    The block is the ring of P^r over C, which depends on r only through
    the top power and its order.  Over R the twisted classes, the powers and
    their gamma-polynomials less the constant term lie in the ideal (a), on
    which L acts as 1, so their coordinates are the block's with a zero at
    L.  So one computation serves both bases and every such r.
    """
    group, unit, mul = _projective_ring("C", top, order)
    ring = RingModel("block(top=%d,order=%d)" % (top, order), group, unit, mul,
                     _basis_vec(top + 1, 0), [[]] * (top + 1), None, 2 * top)
    # gamma_t(a^k) = gamma_t(a_k) prod_(j<k) gamma_t(a^j)^(-c_kj), with c_kj
    # the coordinates of a_k at the lower powers a^j (its coordinate at a^k
    # is 1); all have degree at most 2 top, so order 2 top holds them exactly
    powers = []
    for a_k in twisted_hyperbolic_classes(ring, top)[1:]:
        c = a_k.value.coeffs
        g = TruncSeries(ring, [unit, c, (-a_k).value.coeffs], 2 * top)
        for j, g_j in enumerate(powers):
            if c[1 + j]:
                g = g * g_j.pow(-c[1 + j])
        powers.append(g)
    return tuple(tuple(g.rows()[1:]) for g in powers)


@_interned
def gw_punctured_line(base: str = "R", trunc: int = DEFAULT_TRUNCATION) -> RingModel:
    if base != "R":
        raise ValueError("only the real punctured line is shipped")
    group = GroupPresentation((0, 0, 0), ("one", "L", "eps"))
    unit = (1, 0, 0)
    mul = {
        (0, 0): unit,
        (0, 1): (0, 1, 0),
        (0, 2): (0, 0, 1),
        (1, 1): unit,
        (1, 2): (0, 0, -1),
        (2, 2): (0, 0, -2),
    }
    return _model(
        "gw_punctured_line(base=R)", group, unit, mul, (1, 1, 0), [None, None, [(0, 0, 1)]],
        [(1, 1, 0)], trunc,
    )


@_interned
def gw_punctured_a5(f: int = 3, trunc: int = DEFAULT_TRUNCATION) -> RingModel:
    """Reduced part of GW of odd punctured affine space over C.

    The additive group is Z + Z/2 * eps^ with eps^2 = 0; the gamma-series of
    eps^ has coefficients c_i * eps^ with c_i = C(2^(f-1), i) 2^(i-f), which
    are 1, odd, and then all even, so mod 2 the series is 1 + e t + e t^2
    for every f.
    """
    if type(f) is not int:
        raise ValueError("f %r is not an integer" % (f,))
    if not 2 <= f <= 8:
        raise ValueError("f must lie in 2..8")
    unit = (1, 0)
    return _model(
        "gw_punctured_a5(f=%d)" % f, GroupPresentation((0, 2), ("one", "eps")),
        unit, {(0, 0): unit, (0, 1): (0, 1), (1, 1): (0, 0)}, (1, 0), [None, [(0, 1), (0, 1)]],
        [], trunc,
    )


@_interned
def gw_surface_cxp1(s: int = 1, trunc: int = DEFAULT_TRUNCATION) -> RingModel:
    """Curve times projective line, with s two-torsion line bundle classes.

    Basis: 1; a_1..a_s (two-torsion line classes minus one); b and c (order
    two hyperbolic shifts); d_0 (free hyperbolic shift); d_1..d_s (order two
    hyperbolic shifts).  The only non-trivial products are
    a_j * c = a_j * d_N = d_j + c.
    """
    if type(s) is not int:
        raise ValueError("s %r is not an integer" % (s,))
    if not 0 <= s <= 12:
        raise ValueError("s must lie in 0..12")
    names = (
        ["one"]
        + ["a%d" % j for j in range(1, s + 1)]
        + ["b", "c", "d0"]
        + ["d%d" % j for j in range(1, s + 1)]
    )
    orders = [0] + [2] * s + [2, 2, 0] + [2] * s
    group = GroupPresentation(tuple(orders), tuple(names))
    rank = group.rank
    i_b = 1 + s
    i_c = 2 + s
    i_d0 = 3 + s

    mul = {(0, i): _basis_vec(rank, i) for i in range(rank)}
    d_indices = [i_d0] + [i_d0 + j for j in range(1, s + 1)]
    for j in range(1, s + 1):
        target = [0] * rank
        target[i_d0 + j] = 1
        target[i_c] = 1
        for i in [i_c] + d_indices:
            mul[(j, i)] = tuple(target)
    # all remaining non-unit products vanish; the sparse table handles that
    hyperbolic = [i_b, i_c] + d_indices
    rest = (_basis_vec(rank, i) for i in range(1, rank))
    gammas = [None] + [[x] if i <= s else [x, [-v for v in x]] for i, x in enumerate(rest, 1)]
    return _model(
        "gw_surface_cxp1(s=%d)" % s, group, _basis_vec(rank, 0), mul,
        tuple([1] + [0] * (rank - 1)), gammas,
        [_basis_vec(rank, i) for i in hyperbolic], trunc,
    )


# the runaway guard of ``line_elements``: twice the 2^12 line elements of
# gw_surface_cxp1(12), the most of any builtin
_LINE_ELEMENT_CAP = 2 ** 13


def line_elements(model: RingModel) -> frozenset:
    """The multiplicative group of line elements visible in the model.

    A line element has rank one and total lambda-series 1 + x t.  Candidates
    are the rank-one basis elements and unit + b for rank-zero basis b; the
    set is closed under multiplication by the candidates that are lines,
    which generate it, and every member is re-verified.
    """
    def is_line(x):
        if model.augmentation(x.value) != 1:
            return False
        rows = lambda_total(x).rows()
        return rows[1] == x.value.coeffs and not any(map(any, rows[2:]))

    one = model.unit_element
    candidates = [one]
    for i in range(model.group.rank):
        b = model.basis_element(i)
        if model.aug[i] == 1:
            candidates.append(b)
        elif model.aug[i] == 0:
            candidates.append(one + b)
    lines = {x.value: x for x in candidates if is_line(x)}
    generators = list(lines.values())
    frontier = list(generators)
    while frontier:
        x = frontier.pop()
        for y in generators:
            z = x * y
            if z.value not in lines:
                if not is_line(z):
                    raise AssertionError("product of line elements is not a line")
                lines[z.value] = z
                frontier.append(z)
        if len(lines) > _LINE_ELEMENT_CAP:
            raise AssertionError("line element closure did not terminate")
    return frozenset(lines.values())


BUILTINS = {
    "gw_point": gw_point,
    "gw_point_C": functools.partial(gw_point, "C"),
    "gw_point_R": functools.partial(gw_point, "R"),
    "gw_projective": gw_projective,
    "gw_punctured_line": gw_punctured_line,
    "gw_punctured_a5": gw_punctured_a5,
    "gw_surface_cxp1": gw_surface_cxp1,
}
