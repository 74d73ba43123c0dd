"""Symmetric-function identities checked by literal expansion.

Every universal polynomial here has a defining expansion in honest
variables; the tests expand both sides and compare exact coefficient dicts,
then freeze a handful of classical values.
"""

import random
from itertools import combinations, permutations

import pytest

from gwgamma.symfunc import (
    MultiPoly,
    binomial,
    compose_universal,
    elementary,
    newton_psi,
    product_universal,
    to_elementary,
)


def expand_elementary(q, n):
    """Inverse of to_elementary: substitute e_i -> elementary(n, i)."""
    if q.nvars != n:
        raise ValueError("expected a polynomial in e_1..e_n")
    acc = MultiPoly(n)
    for exps, c in q.terms.items():
        prod = MultiPoly.constant(n, c)
        for i, e in enumerate(exps):
            if e:
                prod = prod * elementary(n, i + 1) ** e
        acc = acc + prod
    return acc


def is_symmetric(p):
    for perm in permutations(range(p.nvars)):
        for exps, c in p.terms.items():
            if p.terms.get(tuple(exps[i] for i in perm), 0) != c:
                return False
    return True


def symmetrize(p):
    acc = MultiPoly(p.nvars)
    for perm in permutations(range(p.nvars)):
        acc = acc + MultiPoly(
            p.nvars,
            {tuple(e[i] for i in perm): c for e, c in p.terms.items()},
        )
    return acc


def power_sum(n, k):
    terms = {}
    for i in range(n):
        exps = [0] * n
        exps[i] = k
        terms[tuple(exps)] = 1
    return MultiPoly(n, terms)


def test_to_elementary_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(2, 6)
        raw = MultiPoly(
            n,
            {
                tuple(rng.randrange(0, 3) for _ in range(n)): rng.randrange(-4, 5)
                for _ in range(rng.randrange(1, 5))
            },
        )
        p = symmetrize(raw)
        total = max((sum(e) for e in p.terms), default=0)
        if total > 6:
            continue
        q = to_elementary(p)
        assert expand_elementary(q, n) == p


def test_to_elementary_frozen():
    p = MultiPoly(2, {(2, 0): 1, (0, 2): 1})
    assert to_elementary(p) == MultiPoly(2, {(2, 0): 1, (0, 1): -2})
    with pytest.raises(ValueError):
        to_elementary(MultiPoly(2, {(1, 0): 1}))


def test_newton_psi_against_power_sums():
    for k in range(1, 7):
        psi = newton_psi(k)
        for n in range(1, k + 1):
            values = [elementary(n, i) for i in range(1, k + 1)]
            got = psi.evaluate(values, MultiPoly.constant(n, 1))
            assert got == power_sum(n, k)


def test_newton_psi_frozen():
    assert newton_psi(2) == MultiPoly(2, {(2, 0): 1, (0, 1): -2})
    assert newton_psi(3) == MultiPoly(
        3, {(3, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): 3}
    )


def embedded_elementary(total, indices, k):
    """e_k of the chosen variable subset, inside `total` variables."""
    terms = {}
    for subset in combinations(indices, k):
        exps = [0] * total
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = 1
    return MultiPoly(total, terms) if k else MultiPoly.constant(total, 1)


@pytest.mark.parametrize("n,N,M", [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3), (3, 4, 3)])
def test_product_universal_against_expansion(n, N, M):
    total = N + M
    xs = list(range(N))
    ys = list(range(N, N + M))
    pairs = [(i, j) for i in xs for j in ys]
    direct = MultiPoly(total)
    for chosen in combinations(pairs, n):
        exps = [0] * total
        for i, j in chosen:
            exps[i] += 1
            exps[j] += 1
        direct = direct + MultiPoly(total, {tuple(exps): 1})
    pn = product_universal(n)
    values = [embedded_elementary(total, xs, i) for i in range(1, n + 1)]
    values += [embedded_elementary(total, ys, j) for j in range(1, n + 1)]
    assert pn.evaluate(values, MultiPoly.constant(total, 1)) == direct


def test_product_universal_frozen_p2():
    # P_2 = e1^2 f2 + e2 f1^2 - 2 e2 f2
    assert product_universal(2) == MultiPoly(
        4,
        {
            (2, 0, 0, 1): 1,
            (0, 1, 2, 0): 1,
            (0, 1, 0, 1): -2,
        },
    )


def test_product_universal_binomial_specialization():
    for n in range(1, 5):
        pn = product_universal(n)
        for N in range(-6, 7):
            for M in range(-6, 7):
                values = [binomial(N, i) for i in range(1, n + 1)]
                values += [binomial(M, j) for j in range(1, n + 1)]
                assert pn.evaluate(values, 1) == binomial(N * M, n)


def test_compose_universal_frozen_p22():
    # classical lambda^2(lambda^2) = e1 e3 - e4
    assert compose_universal(2, 2) == MultiPoly(
        4, {(1, 0, 1, 0): 1, (0, 0, 0, 1): -1}
    )


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_compose_universal_stability(m, n):
    # evaluate on one more line variable than the defining mn: no longer
    # a tautology, the identity must survive the larger specialization
    N = m * n + 1
    subsets = list(combinations(range(N), n))
    direct = MultiPoly(N)
    for chosen in combinations(subsets, m):
        exps = [0] * N
        for s in chosen:
            for i in s:
                exps[i] += 1
        direct = direct + MultiPoly(N, {tuple(exps): 1})
    pmn = compose_universal(m, n)
    values = [embedded_elementary(N, list(range(N)), i) for i in range(1, m * n + 1)]
    assert pmn.evaluate(values, MultiPoly.constant(N, 1)) == direct


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_compose_universal_binomial_specialization(m, n):
    pmn = compose_universal(m, n)
    for N in range(m * n, m * n + 3):
        values = [binomial(N, i) for i in range(1, m * n + 1)]
        assert pmn.evaluate(values, 1) == binomial(binomial(N, n), m)


def test_compose_bound_enforced():
    with pytest.raises(ValueError):
        compose_universal(3, 3)
    with pytest.raises(ValueError):
        product_universal(5)


def test_binomial_negative_upper_index():
    assert binomial(-1, 3) == -1
    assert binomial(-2, 1) == -2
    assert binomial(-3, 2) == 6
    assert binomial(5, 2) == 10
    assert binomial(3, -1) == 0
    # Vandermonde spot check with negative entries
    for n in range(-4, 5):
        for k in range(0, 5):
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)
