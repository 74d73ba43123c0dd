"""Differential test of the span-layered filtration engine.

The reference below is the earlier engine: it enumerates every nonzero
gamma-monomial value of weight at most the cap, min(certified cap,
truncation), and certifies closure on the stored monomials when the
certified cap fits inside the truncation.  Its cost grows exponentially
with the cap, so it lives here only as an oracle; every field of
``FiltrationResult`` must match, warnings included.

None of these models reaches the closure-failure clause.  For a model
that passes ``validate_model`` it cannot: every gamma-value lies in F^1,
which the generators span, so a product of weight above the cap can be
rewritten by replacing factors with weight-one generators, lowering its
weight in steps of less than i_max until it lands in [kmax, cap].  Only
the truncation clause is exercised: projective spaces of dimension 10..12
at the default truncation, and dimension 7 at truncation 8.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import (
    GroupPresentation,
    full_subgroup,
    kernel_basis,
    relative_quotient_invariants,
    subgroup_from_generators,
)
from gwgamma.filtration import FiltrationResult, gamma_filtration
from gwgamma import lambdaring
from gwgamma.lambdaring import RingModel, gamma_total
from gwgamma.models import BUILTINS, gw_projective


def _gamma_value_table(gens, cap):
    from test_arith_oracle import elements_of  # which imports this module

    table = []
    for e in gens:
        coeffs = elements_of(gamma_total(e, cap))
        table.append([(i, coeffs[i]) for i in range(1, cap + 1) if not coeffs[i].is_zero])
    return table


def _monomial_values(table, cap):
    """Nonzero values of weight-bounded monomials, keyed by total weight."""
    symbols = sorted(
        ((i, g, v) for g, row in enumerate(table) for i, v in row),
        key=lambda s: (s[0], s[1]),
    )
    by_weight = {w: set() for w in range(1, cap + 1)}

    def extend(start, weight, value):
        for idx in range(start, len(symbols)):
            i, _, v = symbols[idx]
            w2 = weight + i
            if w2 > cap:
                break
            val2 = value * v if value is not None else v
            if val2.is_zero:
                continue
            by_weight[w2].add(val2.value)
            extend(idx, w2, val2)

    extend(0, 0, None)
    return by_weight


def _assemble_pieces(m, by_weight, kmax, cap):
    pieces = [full_subgroup(m.group)]
    for k in range(1, kmax + 1):
        vecs = [
            v
            for w in range(k, cap + 1)
            for v in sorted(by_weight[w], key=lambda g: g.coeffs)
        ]
        pieces.append(subgroup_from_generators(m.group, vecs))
    return tuple(pieces)


def _closure_certified(m, pieces, by_weight, table, kmax, cap):
    deepest = pieces[kmax]
    gamma_values = [(i, v) for row in table for i, v in row]
    for w in range(kmax, cap + 1):
        for stored in by_weight[w]:
            x = m.element(stored.coeffs)
            for i, g in gamma_values:
                if w + i <= cap:
                    continue
                prod = x * g
                if not prod.is_zero and not deepest.contains(prod.value):
                    return False
    return True


def oracle_filtration(m, kmax=8):
    budget = m.trunc
    gens = [m.element(v) for v in kernel_basis(m.aug)]
    table = _gamma_value_table(gens, budget)
    imax = max((i for row in table for i, _ in row), default=0)
    certified = kmax + max(imax - 1, 0)
    cap = min(certified, budget)
    by_weight = _monomial_values(table, cap)
    pieces = _assemble_pieces(m, by_weight, kmax, cap)
    warnings = []
    if certified > budget:
        warnings.append(
            "certified cap %d exceeds truncation %d, pieces use products "
            "up to weight %d" % (certified, budget, budget)
        )
    elif not _closure_certified(m, pieces, by_weight, table, kmax, cap):
        warnings.append("F^%d not closed under the gamma-values" % kmax)
    return FiltrationResult(
        model=m,
        group=m.group,
        kmax=kmax,
        pieces=pieces,
        graded=tuple(
            relative_quotient_invariants(pieces[k], pieces[k + 1])
            for k in range(kmax)
        ),
        weight_cap=cap,
        exact=not warnings,
        warnings=tuple(warnings),
    )


# every builtin over the parameter range the command line accepts
CLI_BUILTINS = (
    [("gw_point", {"base": b}) for b in "CR"]
    + [("gw_point_C", {}), ("gw_point_R", {}), ("gw_punctured_line", {})]
    + [("gw_projective", {"base": b, "r": r}) for b in "CR" for r in range(1, 13)]
    + [("gw_punctured_a5", {"f": f}) for f in range(2, 9)]
    + [("gw_surface_cxp1", {"s": s}) for s in range(13)]
)


def uncached(build):
    """The uncached build behind an interned constructor, ``__wrapped__``,
    with the arguments a ``functools.partial`` of one binds (``gw_point_C``
    and ``gw_point_R`` bind the base of ``gw_point``); a build that is not
    interned is its own."""
    if isinstance(build, functools.partial):
        return functools.partial(build.func.__wrapped__, *build.args, **build.keywords)
    return getattr(build, "__wrapped__", build)


def fresh(build):
    """``uncached(build)`` on an emptied registry of content records: the
    model it returns derives its checks and its filtration itself, not from
    the record of a live model with equal content (``lambdaring._derived``),
    as long as no other model is looked up before it."""
    def call(*args, **kwargs):
        lambdaring._RECORDS.clear()
        return uncached(build)(*args, **kwargs)

    return call


@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_matches_oracle(name, kwargs):
    m = BUILTINS[name](**kwargs)
    assert gamma_filtration(m) == oracle_filtration(m)


def test_heuristic_under_short_truncation_matches_oracle():
    m = gw_projective("C", 7, trunc=8)
    f = gamma_filtration(m, kmax=7)
    assert not f.exact
    assert f == oracle_filtration(m, kmax=7)


@functools.lru_cache(maxsize=None)
def group_ring(orders):
    """Z[G] for G = Z/o_1 x ... x Z/o_n, with lambda_t(g) = 1 + g t."""
    elems = list(itertools.product(*[range(n) for n in orders]))
    index = {e: i for i, e in enumerate(elems)}
    rank = len(elems)

    def basis_vec(i):
        return tuple(int(j == i) for j in range(rank))

    mul = {}
    for i, a in enumerate(elems):
        for j in range(i, rank):
            ab = tuple((x + y) % n for x, y, n in zip(a, elems[j], orders))
            mul[(i, j)] = basis_vec(index[ab])
    names = tuple("g" + "".join(map(str, e)) for e in elems)
    return RingModel(
        "Z[%s]" % "x".join("C%d" % n for n in orders),
        GroupPresentation((0,) * rank, names),
        basis_vec(0),
        mul,
        (1,) * rank,
        [[basis_vec(i)] for i in range(rank)],
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    orders=st.sampled_from([(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 2, 2)]),
    kmax=st.integers(1, 5),
)
def test_group_ring_matches_oracle(orders, kmax):
    m = group_ring(orders)
    assert gamma_filtration(m, kmax=kmax) == oracle_filtration(m, kmax=kmax)
