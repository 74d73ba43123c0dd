"""Gamma filtration of an augmented lambda-ring model.

F^0 is the whole group, F^1 the kernel of the rank homomorphism, and F^k
for k >= 2 is the subgroup generated by all products

    gamma^{i_1}(e_1) * ... * gamma^{i_m}(e_m),   i_1 + ... + i_m >= k,

over a generating set E of F^1.  Multiplication is bilinear, so the span
S_w of the products of weight exactly w obeys

    S_w = span{gamma-values of weight w} + sum over gamma-values g of
          weight i < w of g * S_{w-i},

the multiplicativity F^i * F^j in F^(i+j) of the gamma filtration.  Each
S_w is built once, as a Hermite normal form, from the gamma-values of
weight w and the products of the lighter gamma-values with the columns of
the earlier spans.  The pieces up to a weight cap are cumulative:
F^kmax = S_kmax + ... + S_cap and F^k = F^(k+1) + S_k.

The result is flagged exact when

* each generator's gamma-series vanishes beyond some weight i_max visible
  inside the model truncation, with cap = kmax + i_max - 1, and
* F^kmax is closed under multiplication by every nonzero gamma-value,
  checked on its HNF columns.

Take a product of weight above the cap and multiply its factors together
one at a time.  Each factor adds at most i_max = cap - kmax + 1 to the
weight, so the first partial product of weight >= kmax has weight in
[kmax, cap] and lies in F^kmax; closure keeps every further partial
product there.  So each piece up to the cap already holds all deeper
products.  This covers both nilpotent augmentation ideals (all long
products die) and the two-adic chains of the real point and the real
punctured line, where products never vanish but each extra factor doubles
the generator (2^k (L-1) stays in the span).  If the cap lies beyond the
truncation or closure fails, the same spans are extended one weight at a
time from cap kmax until the pieces stay unchanged for ``window``
consecutive caps, and the result is flagged as heuristic.

The Witt-level filtration is the image of the gamma filtration in the
quotient by the declared hyperbolic classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import (
    GroupElement,
    GroupPresentation,
    Subgroup,
    full_subgroup,
    kernel_basis,
    project_element,
    quotient_invariants,
    quotient_presentation,
    relative_quotient_invariants,
    subgroup_from_generators,
)
from .lambdaring import RingElement, RingModel, gamma_total


@dataclass(frozen=True)
class FiltrationResult:
    model: RingModel
    group: GroupPresentation
    kmax: int
    pieces: tuple[Subgroup, ...]
    graded: tuple[tuple[int, ...], ...]
    generators: tuple[GroupElement, ...]
    weight_cap: int
    stabilized_window: int
    exact: bool
    warnings: tuple[str, ...]


def augmentation_kernel(m: RingModel) -> tuple[Subgroup, tuple[RingElement, ...]]:
    """The rank-zero subgroup F^1 together with a finite generating set."""
    gens = tuple(m.element(v) for v in kernel_basis(m.aug))
    sub = subgroup_from_generators(m.group, [e.value for e in gens])
    return sub, gens


def _gamma_values(
    gens: tuple[RingElement, ...], order: int
) -> list[tuple[int, RingElement]]:
    """(i, gamma^i(e)) for every generator e and nonzero value, 1 <= i <= order."""
    values = []
    for e in gens:
        series = gamma_total(e, order)
        values.extend(
            (i, series.coeffs[i]) for i in range(1, order + 1)
            if not series.coeffs[i].is_zero
        )
    return values


def _sum(pres: GroupPresentation, subs: list[Subgroup]) -> Subgroup:
    return subgroup_from_generators(
        pres, [pres.element(c) for s in subs for c in s.columns]
    )


def _pieces(
    m: RingModel,
    values: list[tuple[int, RingElement]],
    spans: list[Subgroup],
    kmax: int,
    cap: int,
) -> tuple[Subgroup, ...]:
    """F^0..F^kmax spanned by the products of weight at most `cap`.

    ``spans`` holds S_1, S_2, ... and is extended here to S_cap; a span
    already in it is never rebuilt.
    """
    for w in range(len(spans) + 1, cap + 1):
        vecs = [g.value for i, g in values if i == w]
        vecs += [
            (g * m.element(c)).value
            for i, g in values if i < w
            for c in spans[w - i - 1].columns
        ]
        spans.append(subgroup_from_generators(m.group, vecs))
    pieces = [_sum(m.group, spans[kmax - 1:cap])]
    for k in range(kmax - 1, 0, -1):
        pieces.append(_sum(m.group, [pieces[-1], spans[k - 1]]))
    return (full_subgroup(m.group), *reversed(pieces))


def _closed(
    m: RingModel, piece: Subgroup, values: list[tuple[int, RingElement]]
) -> bool:
    """Whether `piece` is closed under multiplication by every gamma-value."""
    return all(
        piece.contains((g * m.element(c)).value)
        for _, g in values
        for c in piece.columns
    )


def _graded_invariants(
    pieces: tuple[Subgroup, ...]
) -> tuple[tuple[int, ...], ...]:
    return tuple(
        relative_quotient_invariants(pieces[k], pieces[k + 1])
        for k in range(len(pieces) - 1)
    )


def gamma_filtration(
    m: RingModel,
    kmax: int = 8,
    window: int = 2,
) -> FiltrationResult:
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if window < 1:
        raise ValueError("window must be at least 1")
    budget = m.trunc
    if kmax > budget:
        raise ValueError("kmax %d exceeds weight budget %d" % (kmax, budget))
    _, gens = augmentation_kernel(m)
    values = _gamma_values(gens, budget)
    imax = max((i for i, _ in values), default=0)
    spans: list[Subgroup] = []
    warnings: list[str] = []
    stable = 0

    cap = kmax + max(imax - 1, 0)
    if cap <= budget:
        pieces = _pieces(m, values, spans, kmax, cap)
        exact = _closed(m, pieces[kmax], values)
        if not exact:
            warnings.append(
                "closure check failed at weight %d; falling back to "
                "stabilization" % cap
            )
    else:
        exact = False
        warnings.append(
            "gamma-values reach weight %d, certified cap %d exceeds "
            "budget %d; using stabilization heuristic" % (imax, cap, budget)
        )

    if not exact:
        prev: tuple[Subgroup, ...] | None = None
        for cap in range(kmax, budget + 1):
            pieces = _pieces(m, values, spans, kmax, cap)
            if pieces == prev:
                stable += 1
                if stable >= window:
                    break
            else:
                stable = 0
                prev = pieces
        if stable >= window:
            warnings.append(
                "pieces unchanged for %d consecutive weight caps up to %d"
                % (window, cap)
            )
        else:
            warnings.append(
                "weight budget %d exhausted before stabilization" % budget
            )
    return FiltrationResult(
        model=m,
        group=m.group,
        kmax=kmax,
        pieces=pieces,
        graded=_graded_invariants(pieces),
        generators=tuple(e.value for e in gens),
        weight_cap=cap,
        stabilized_window=stable,
        exact=exact,
        warnings=tuple(warnings),
    )


def witt_quotient(
    m: RingModel,
) -> tuple[GroupPresentation, tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Quotient presentation of the group by the hyperbolic classes."""
    if m.hyperbolic is None:
        raise ValueError("model %s declares no hyperbolic classes" % m.name)
    hyper = subgroup_from_generators(m.group, list(m.hyperbolic))
    qpres, projection = quotient_presentation(m.group, hyper, prefix="w")
    return qpres, projection, quotient_invariants(m.group, hyper)


def witt_filtration(
    m: RingModel,
    f: FiltrationResult | None = None,
    kmax: int = 8,
    window: int = 2,
) -> FiltrationResult:
    """Image of the gamma filtration in the quotient by hyperbolic classes."""
    qpres, projection, _ = witt_quotient(m)
    if f is None:
        f = gamma_filtration(m, kmax=kmax, window=window)

    def push(col: tuple[int, ...]) -> GroupElement:
        return project_element(qpres, projection, m.group.element(col))

    pieces = [full_subgroup(qpres)]
    for piece in f.pieces[1:]:
        pieces.append(subgroup_from_generators(
            qpres, [push(col) for col in piece.columns]
        ))
    return FiltrationResult(
        model=m,
        group=qpres,
        kmax=f.kmax,
        pieces=tuple(pieces),
        graded=_graded_invariants(tuple(pieces)),
        generators=tuple(push(e.coeffs) for e in f.generators),
        weight_cap=f.weight_cap,
        stabilized_window=f.stabilized_window,
        exact=f.exact,
        warnings=f.warnings,
    )
