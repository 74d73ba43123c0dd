"""Symmetric-function identities checked by literal expansion.

Every universal polynomial here has a defining expansion in honest
variables; the tests expand both sides and compare exact coefficient dicts,
then freeze a handful of classical values.

The oracle for the Newton-built universal polynomials is the earlier
construction: expand the defining product over index subsets, then rewrite
each symmetric block in the elementary basis by cancelling the
lexicographically leading term.  A symmetric polynomial with leading
exponent l_1 >= l_2 >= ... >= l_n loses that term after subtracting
c * e_1^(l_1-l_2) * e_2^(l_2-l_3) * ... * e_n^(l_n), and the leading
exponent strictly decreases, so the loop terminates.
"""

import random
from itertools import combinations, permutations

import pytest

from gwgamma import cli
from gwgamma.models import BUILTINS
from gwgamma.symfunc import (
    COMPOSE_WEIGHT_BOUND,
    PRODUCT_DEGREE_BOUND,
    MultiPoly,
    _lambda_from_psi,
    compose_universal,
    newton_psi,
    product_universal,
)
from reference import (
    SMALL_BUILTINS, assert_special_matches_oracle, basis_pairs, binomial, elementary,
    expand_elementary, oracle_evaluate, to_elementary, z_coeffs, z_series)


def convert_block(p, lo, hi):
    """Rewrite the symmetric block of variables [lo, hi) in elementary form."""
    groups = {}
    for exps, c in p.terms.items():
        groups.setdefault(exps[:lo] + exps[hi:], {})[exps[lo:hi]] = c
    out = {}
    for rest, sub in groups.items():
        for bexps, c in to_elementary(MultiPoly(hi - lo, sub)).terms.items():
            full = rest[:lo] + bexps + rest[lo:]
            out[full] = out.get(full, 0) + c
    return MultiPoly(p.nvars, out)


def oracle_product_universal(n):
    """P_n from the coefficient of t^n in prod_{i,j} (1 + x_i y_j t)."""
    nv = 2 * n
    coeff = {}
    for chosen in combinations([(i, j) for i in range(n) for j in range(n)], n):
        exps = [0] * nv
        for i, j in chosen:
            exps[i] += 1
            exps[n + j] += 1
        coeff[tuple(exps)] = coeff.get(tuple(exps), 0) + 1
    return convert_block(convert_block(MultiPoly(nv, coeff), 0, n), n, nv)


def oracle_compose_universal(m, n):
    """P_{m,n} from prod_{|S|=n} (1 + x_S t) over n-subsets S of {1..mn}."""
    nv = m * n
    coeff = {}
    for chosen in combinations(list(combinations(range(nv), n)), m):
        exps = [0] * nv
        for s in chosen:
            for i in s:
                exps[i] += 1
        coeff[tuple(exps)] = coeff.get(tuple(exps), 0) + 1
    return to_elementary(MultiPoly(nv, coeff))


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
            got = oracle_evaluate(psi, values, MultiPoly.constant(n, 1))
            assert got == power_sum(n, k)


def test_newton_psi_frozen():
    assert newton_psi(2) == MultiPoly(2, {(2, 0): 1, (0, 1): -2})
    assert newton_psi(3) == MultiPoly(
        3, {(3, 0, 0): 1, (1, 1, 0): -3, (0, 0, 1): 3}
    )


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
    values = [elementary(total, i, xs) for i in range(1, n + 1)]
    values += [elementary(total, j, ys) for j in range(1, n + 1)]
    assert oracle_evaluate(pn, values, MultiPoly.constant(total, 1)) == direct


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
                assert oracle_evaluate(pn, values, 1) == binomial(N * M, n)


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
    values = [elementary(N, i) for i in range(1, m * n + 1)]
    assert oracle_evaluate(pmn, values, MultiPoly.constant(N, 1)) == direct


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_compose_universal_binomial_specialization(m, n):
    pmn = compose_universal(m, n)
    for N in range(m * n, m * n + 3):
        values = [binomial(N, i) for i in range(1, m * n + 1)]
        assert oracle_evaluate(pmn, values, 1) == binomial(binomial(N, n), m)


def test_compose_bound_enforced():
    with pytest.raises(ValueError):
        compose_universal(3, 3)
    with pytest.raises(ValueError):
        product_universal(5)


def test_binomial_negative_upper_index():
    # C(e, k) is the degree-k coefficient of (1 + t)^e, the series' own
    # binomial sum, for every integer e; the reference binomial agrees
    def coeff(e, k):
        return z_coeffs(z_series((1, 1, 0, 0, 0)).pow(e))[k] if k >= 0 else 0

    for e, k, value in ((-1, 3, -1), (-2, 1, -2), (-3, 2, 6), (5, 2, 10), (3, -1, 0)):
        assert coeff(e, k) == binomial(e, k) == value
    # Vandermonde spot check with negative entries
    for n in range(-4, 5):
        for k in range(0, 5):
            assert coeff(n, k) == coeff(n - 1, k) + coeff(n - 1, k - 1)
            assert binomial(n, k) == binomial(n - 1, k) + binomial(n - 1, k - 1)


@pytest.mark.parametrize("n", range(1, PRODUCT_DEGREE_BOUND + 1))
def test_product_universal_matches_expansion_oracle(n):
    got = product_universal(n)
    assert sorted(got.terms.items()) == sorted(oracle_product_universal(n).terms.items())


COMPOSE_SIZES = [
    (m, n)
    for m in range(1, COMPOSE_WEIGHT_BOUND + 1)
    for n in range(1, COMPOSE_WEIGHT_BOUND // m + 1)
]


@pytest.mark.parametrize("m,n", COMPOSE_SIZES)
def test_compose_universal_matches_expansion_oracle(m, n):
    got = compose_universal(m, n)
    assert sorted(got.terms.items()) == sorted(oracle_compose_universal(m, n).terms.items())


def test_lambda_from_psi_checks_exact_division():
    x = MultiPoly.variable(1, 0)
    # a line element: psi^k = x^k, lambda^2 = 0
    assert _lambda_from_psi([x, x * x]) == MultiPoly(1)
    # 2 lambda^2 = psi^1 lambda^1 - psi^2 = x^2 has no integral half
    with pytest.raises(ArithmeticError):
        _lambda_from_psi([x, MultiPoly(1)])


@pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__"])
def test_multipoly_refuses_mixed_variable_counts(op):
    one_var = MultiPoly(1, {(1,): 1})
    two_vars = MultiPoly(2, {(0, 1): 1})
    for a, b in ((one_var, two_vars), (two_vars, one_var)):
        with pytest.raises(ValueError, match="1 and 2 variables|2 and 1 variables"):
            getattr(a, op)(b)


def test_universal_polynomials_work_bound(monkeypatch):
    # 34,968 term pairs with the subset expansions and the leading-term
    # rewrite; Newton's identities need a few hundred
    pairs = []
    real_mul = MultiPoly.__mul__

    def mul(self, other):
        if isinstance(other, MultiPoly):
            pairs.append(len(self.terms) * len(other.terms))
        return real_mul(self, other)

    for built in (product_universal, compose_universal, newton_psi):
        built.cache_clear()
    monkeypatch.setattr(MultiPoly, "__mul__", mul)
    for n in range(1, 5):
        product_universal(n)
    for m, n in ((2, 2), (2, 3), (3, 2)):
        compose_universal(m, n)
    assert 0 < sum(pairs) <= 1000


def test_special_bound_4_on_small_builtins(capsys):
    # the only path that reads P_4
    for name, flags in SMALL_BUILTINS:
        assert cli.run(["special", "builtin:" + name, *flags, "--bound", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "all identities PASS"
    basis = BUILTINS["gw_projective"](base="R", r=3).basis_elements()
    got = assert_special_matches_oracle(basis, basis_pairs(len(basis)), 4)
    assert all(r.ok for r in got)
