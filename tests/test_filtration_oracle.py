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

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import (
    full_subgroup,
    kernel_basis,
    relative_quotient_invariants,
    subgroup_from_generators,
)
from gwgamma.filtration import FiltrationResult, gamma_filtration
from gwgamma.models import BUILTINS, gw_projective
from reference import CLI_BUILTINS, CLI_IDS, group_ring, oracle_gamma_values


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
    table = [oracle_gamma_values([e], budget) for e in gens]
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


@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=CLI_IDS)
def test_builtin_matches_oracle(name, kwargs):
    m = BUILTINS[name](**kwargs)
    assert gamma_filtration(m) == oracle_filtration(m)


def test_heuristic_under_short_truncation_matches_oracle():
    m = gw_projective("C", 7, trunc=8)
    f = gamma_filtration(m, kmax=7)
    assert not f.exact
    assert f == oracle_filtration(m, kmax=7)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    orders=st.sampled_from([(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 2, 2)]),
    kmax=st.integers(1, 5),
)
def test_group_ring_matches_oracle(orders, kmax):
    m = group_ring(orders)
    assert gamma_filtration(m, kmax=kmax) == oracle_filtration(m, kmax=kmax)
