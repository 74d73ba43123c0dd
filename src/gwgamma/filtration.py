"""Gamma filtration of an augmented lambda-ring model.

F^0 is the whole group, F^1 the kernel of the rank homomorphism, and F^k
for k >= 2 is the subgroup generated by all products

    gamma^{i_1}(e_1) * ... * gamma^{i_m}(e_m),   i_1 + ... + i_m >= k,

over a generating set E of F^1.  Each piece is built from the lower ones:
F^1 is the span of all gamma-values and, for k >= 2,

    F^k = span{gamma-values of weight >= k} + sum over gamma-values g of
          weight i < k of g * F^(k-i).

A product of weight >= k is one gamma-value of weight >= k, or g * p with g
of weight i and p a product of weight >= max(k-i, 1), which lies in
F^max(k-i, 1) by induction; so no product of any weight is missed, and
each piece is one Hermite normal form.  The recursion needs F^1 to be the
augmentation kernel, an ideal, spanned by the values of weight one.  So a
model is refused with a ValueError "<check>: <case>" on the first
offending case of the checks of ``lambdaring._checks`` named in
``_REFUSALS``, and on nothing else: d, the augmentation, is not
multiplicative on the basis, lambda^1 is not the identity on some b_i, a
torsion basis element b_i of order o_i has nonzero rank (then d is no map
on the group) or does not kill some b_i * b_j (see below),
lambda_t(b_i)^o_i is not 1 (then each gamma-value depends on the
representative of a torsion coordinate), d(lambda^k(b_i)) != C(d(b_i), k)
for some k <= trunc, or d(1) != 1.  With D = d on each coefficient, D is
then multiplicative on series and D(lambda_t(b_i)) = (1+t)^d(b_i), so
D(gamma_t(e)) = 1 for e of rank zero: no gamma-value has nonzero rank.
Associativity is not used (below) and not refused: its O(rank^3) check
would cost a filtration-sweep pass more than its 25 % bound.  A unit that
is not neutral makes ``lambda_total`` raise (with no generator the group
is Z, where the refused checks make the unit neutral).

The products g * F^1 of the values g of weight i >= k, and for k >= 3 of
weight i = k - 1 too, are left out of the sum, since they lie in it
already.  With lambda^1 the identity on the basis, the values of weight one
are the generators e themselves, reduced; they span the rank kernel, which
holds every gamma-value, since none has nonzero rank.  So F^1 is spanned by
the values v of weight one and the relation vectors o_q e_q.  g times a
relation vector vanishes, by the torsion refusal.  And g * v = v * g, as
the stored products are symmetric, with g a generator of F^(k-1), its
weight i >= k - 1; so g * v lies in v * F^(k-1), the term of the values of
weight one.  For k >= 3 that term is not g * F^1 itself, so g * F^1 is left
out for i = k - 1 as for i >= k; at k = 2 it is the term of i = 1, which is
kept.  Associativity is not used.

The filtration is multiplicative, F^i * F^j in F^(i+j) (Fulton and Lang,
Riemann-Roch Algebra, Ch. III), and F^kmax is closed under the gamma-values
by construction.  Once F^1 is the augmentation kernel the pieces nest,
F^k in F^(k-1); F^kmax holds g * F^max(kmax-i, 1) for each gamma-value g
of weight i, as a term of its sum or, for i >= kmax, by the argument
above; and F^kmax lies in F^max(kmax-i, 1), so g * F^kmax lies in F^kmax.
Products are taken on reduced representatives, so "g times a combination
of columns is that combination of g times the columns" needs
o_k b_k b_j = 0 for each torsion basis element b_k of order o_k, hence the
torsion refusal.

The pieces are computed once per ring content and extended on demand.  What
the filtration derives from a model's content alone is kept under keys of
its own in the record of that content, which every live model with it
shares, whatever its name (``lambdaring._derived``): "values", the
gamma-values by weight (i_max is the largest), present once the content
passed the refusals; "gamma" and "witt", the levels of each filtration built
so far, the pieces F^0..F^k or their Witt images with the invariants of each
quotient of adjacent levels; and "witt_quotient", the Witt quotient with its
projection rows.  Each key is stored whole, and none needs another stored
first.  The record holds no name and no model, so a piece's presentation
may be an equal one of another model with that content; a result's
``model`` and ``group`` are the caller's.  One routine, ``_grown``, extends
either filtration's levels from a function giving level k, builds level 0,
the whole group, where the record holds no levels, and stores them where it
holds none or shorter ones; a call at kmax extends the stored levels up to
F^kmax or slices them, and only ``exact``, ``warnings`` and ``weight_cap``
are computed per call.  A model is immutable once built, and the record
assumes it.  A refused content gets no "values" and no "gamma" levels, and
either filtration raises on every call on each of its models, though no
check runs twice on it (``_first_cases``).  A level equal to the one below
it is stored as that object, and so is every level above a zero one
(``Subgroup.is_zero``), which no piece is computed for: the pieces nest
once F^1 is the augmentation kernel, and the Witt images of nested pieces
nest.  Each HNF column equal to a spanned vector is stored as that vector's
tuple (``abelian._span``): tuples are immutable and the HNF is canonical,
so sharing them changes no value.

The gamma-values are coefficient tuples read off the gamma-series, whose
lambda-series all come from one ``lambdaring._lambda_totals``, so each basis
power is built once; they are stored as the distinct values of each weight.
All products come from one function, ``_times``: g * F is computed once
per distinct value g and piece F within one extension, one
``RingModel.dot`` per column of F, and keyed by the HNF columns of F: the
HNF is canonical, so equal pieces share every product list.  The lists are
freed when the extension returns.

The result is flagged exact when each generator's gamma-series vanishes
beyond some weight i_max and the certified cap kmax + i_max - 1 lies inside
the model truncation.  The pieces do not depend on a cap; it survives only
in this verdict rule, in ``weight_cap`` and in the warning of a result whose
certified cap lies beyond the truncation.  A model holds its series only up
to weight ``trunc``, so such pieces use the gamma-values known up to that
weight, the "products up to weight" of the warning, and are flagged not
exact.

The Witt-level filtration is the image of the gamma filtration in the
quotient by the declared hyperbolic classes, one HNF column at a time; the
quotient takes one Smith form per content, and each image is spanned once
per content and level, grown by ``_grown`` like the gamma pieces.  Its F^0
level is the whole quotient, since the projected identity spans it, and a
piece stored as the one below has that one's image.  The images are stored
by level, so ``witt_filtration`` takes only a result equal to
``gamma_filtration(m, f.kmax)``; one with pieces, graded groups or flags of
its own is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .abelian import (
    GroupPresentation,
    Subgroup,
    _entries,
    _span,
    full_subgroup,
    kernel_basis,
    project_element,
    quotient_presentation,
    relative_quotient_invariants,
    subgroup_from_generators,
)
from .lambdaring import RingModel, _derived, _first_cases, _lambda_totals

# the checks of ``lambdaring._checks`` the recursion needs, in refusal order
_REFUSALS = (
    "augmentation is a ring homomorphism",
    "lambda^1 is the identity on basis",
    "products respect torsion orders",
    "lambda-series respect torsion orders",
    "augmentation compatible with lambda-series",
    "augmentation(unit) == 1",
)


@dataclass(frozen=True)
class FiltrationResult:
    model: RingModel
    group: GroupPresentation
    kmax: int
    pieces: tuple[Subgroup, ...]
    graded: tuple[tuple[int, ...], ...]
    weight_cap: int
    exact: bool
    warnings: tuple[str, ...]


def _gamma_values(
    m: RingModel, gens: list[tuple[int, ...]], order: int
) -> dict[int, list[tuple[int, ...]]]:
    """The distinct nonzero coefficient tuples of gamma^i(e) by weight i,
    1 <= i <= order, over the generators e, coefficient tuples reduced
    first: weights and values in first-seen order, read off the
    gamma-series, all from one ``_lambda_totals``."""
    values: dict[int, dict[tuple[int, ...], None]] = {}
    total = _lambda_totals(m, order)
    for e in gens:
        for i, g in enumerate(total(m.group.reduce(e)).substitute_geometric().rows()):
            if i and any(g):
                values.setdefault(i, {})[g] = None
    return {i: list(gs) for i, gs in values.items()}


def _times(
    m: RingModel, spans: dict, values: list[tuple[int, ...]], sub: Subgroup
) -> list[tuple[int, ...]]:
    """The distinct nonzero products of each of `values` with the columns of
    sub, one ``RingModel.dot`` each, in order.  `spans` maps the HNF columns
    of a span to its reduced nonzero columns (sparse) and its product lists
    by value, so each list is computed once per value and equal span."""
    entry = spans.get(sub.columns)
    if entry is None:
        reduced = (m.group.reduce(c) for c in sub.columns)
        entry = spans[sub.columns] = ([_entries(c) for c in reduced if any(c)], {})
    cols, products = entry
    out = []
    for g in values:
        if g not in products:
            e = _entries(g)
            found = (m.dot(e, col) for col in cols)
            products[g] = list(dict.fromkeys(p for p in found if any(p)))
        out += products[g]
    return out


def _grown(record: dict, key: str, n: int, piece, group: GroupPresentation) -> tuple:
    """The pair ``record[key]`` of levels 0..j and the invariants of each
    quotient of adjacent levels, grown to n levels, level 0 the whole
    `group` where the record holds none, level k ``piece(k, levels
    0..k-1)``.  A new pair, stored whole where the record holds none or a
    shorter one, so a thread that reads it once reads levels with their
    graded groups."""
    pieces, graded = record.get(key, ((), ()))
    if len(pieces) >= n:
        return pieces, graded
    pieces, graded = list(pieces) or [full_subgroup(group)], list(graded)
    for k in range(len(pieces), n):
        # the levels nest, so all above a zero one are zero; a level equal
        # to the one below is stored as that object
        below = pieces[-1]
        new = below if below.is_zero else piece(k, pieces)
        new = below if new.columns == below.columns else new
        pieces.append(new)
        graded.append(relative_quotient_invariants(below, new))
    grown = tuple(pieces), tuple(graded)
    if n > len(record.get(key, ((), ()))[0]):  # else a call grew it further
        record[key] = grown
    return grown


def gamma_filtration(m: RingModel, kmax: int = 8) -> FiltrationResult:
    if type(kmax) is not int:
        raise ValueError("kmax %r is not an integer" % (kmax,))
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    budget = m.trunc
    if kmax > budget:
        raise ValueError("kmax %d exceeds weight budget %d" % (kmax, budget))
    record = _derived(m)
    values = record.get("values")
    if values is None:
        for name, case in _first_cases(m, _REFUSALS):
            if case is not None:
                raise ValueError("%s: %s" % (name, case))
        values = record["values"] = _gamma_values(m, kernel_basis(m.aug), budget)
    spans: dict = {}

    def piece(k: int, pieces: list[Subgroup]) -> Subgroup:
        # g * F^1 for g of weight i >= k, and of weight i = k - 1 >= 2, lies
        # in the sum already (module docstring)
        vecs = []
        for i, gs in values.items():
            if i >= k:
                vecs += gs
            elif i < k - 1 or i == 1:
                vecs += _times(m, spans, gs, pieces[k - i])
        return _span(m.group, vecs)

    pieces, graded = _grown(record, "gamma", kmax + 1, piece, m.group)
    certified = kmax + max(max(values, default=0) - 1, 0)
    cap = min(certified, budget)
    warnings = []
    if certified > budget:
        warnings.append(
            "certified cap %d exceeds truncation %d, pieces use products "
            "up to weight %d" % (certified, budget, budget)
        )
    return FiltrationResult(
        model=m,
        group=m.group,
        kmax=kmax,
        pieces=pieces[:kmax + 1],
        graded=graded[:kmax],
        weight_cap=cap,
        exact=not warnings,
        warnings=tuple(warnings),
    )


def witt_quotient(
    m: RingModel,
) -> tuple[GroupPresentation, tuple[tuple[int, ...], ...]]:
    """Quotient presentation of the group by the hyperbolic classes, and the
    projection rows onto its coordinates, as tuples: one Smith form per
    content, kept in its record."""
    if m.hyperbolic is None:
        raise ValueError("model %s declares no hyperbolic classes" % m.name)
    record = _derived(m)
    witt = record.get("witt_quotient")
    if witt is None:
        hyper = subgroup_from_generators(m.group, list(m.hyperbolic))
        qpres, projection = quotient_presentation(m.group, hyper)
        witt = record["witt_quotient"] = qpres, tuple(map(tuple, projection))
    return witt


def witt_filtration(m: RingModel, f: FiltrationResult) -> FiltrationResult:
    """Image of the gamma filtration ``f`` of m in the quotient by hyperbolic
    classes; f must equal ``gamma_filtration(m, f.kmax)`` (module
    docstring)."""
    if f.model is not m or f != gamma_filtration(m, f.kmax):
        raise ValueError("f is not a gamma filtration of model %s" % m.name)
    qpres, projection = witt_quotient(m)

    def image(k: int, images: list[Subgroup]) -> Subgroup:
        if f.pieces[k] is f.pieces[k - 1]:  # a piece stored as the one below
            return images[-1]
        return _span(qpres, [project_element(qpres, projection, col)
                             for col in f.pieces[k].columns])

    n = len(f.pieces)
    images, graded = _grown(_derived(m), "witt", n, image, qpres)
    return replace(f, group=qpres, pieces=images[:n], graded=graded[:n - 1])
