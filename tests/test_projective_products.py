"""A closed-form family: K(P^n1 x ... x P^nr) = Z[L_1..L_r]/((L_i - 1)^(n_i+1)).

It is a special lambda-ring generated by the line elements L_i, so its
gamma-filtration is the filtration by the powers of the augmentation ideal
(x_1, ..., x_r), x_i = L_i - 1 (Fulton and Lang, Ch. III; Atiyah,
*K-Theory*, 2.7).  gr^k is free, of rank the number of exponent vectors a
with |a| = k and a_i <= n_i.

``projective_product`` builds the model on the basis of the monomials L^b,
0 <= b_i <= n_i, with lambda_t(L^b) = 1 + L^b t; other test modules import
it.
"""

import itertools
import json
import math

import pytest

from gwgamma.abelian import GroupPresentation
from gwgamma.cli import model_to_dict, run
from gwgamma.filtration import gamma_filtration
from gwgamma.lambdaring import DEFAULT_TRUNCATION, RingModel, validate_model


def _line_powers(n):
    """L^e for 0 <= e <= 2n in K(P^n), as coefficient vectors on 1, L, ...,
    L^n: (L - 1)^(n+1) = 0 rewrites L^(n+1) in the lower powers."""
    top = [(-1) ** (n - j) * math.comb(n + 1, j) for j in range(n + 1)]
    powers = [[int(j == e) for j in range(n + 1)] for e in range(n + 1)]
    for _ in range(n):
        prev = powers[-1]
        powers.append([a + prev[-1] * t for a, t in zip([0] + prev[:-1], top)])
    return powers


def projective_product(ns, trunc=DEFAULT_TRUNCATION):
    """K(P^n1 x ... x P^nr) for ns = (n1, ..., nr): basis L^b in the
    lexicographic order of b, unit L^0, every basis element of rank 1."""
    tables = [_line_powers(n) for n in ns]
    exps = list(itertools.product(*(range(n + 1) for n in ns)))
    rank = len(exps)

    def basis_vec(i):
        return tuple(int(j == i) for j in range(rank))

    mul = {}
    for i, a in enumerate(exps):
        for j in range(i, rank):
            # L^a L^b is the tensor product of the factors' L_f^(a_f + b_f)
            sums = [x + y for x, y in zip(a, exps[j])]
            mul[(i, j)] = tuple(
                math.prod(t[s][z] for t, s, z in zip(tables, sums, c)) for c in exps
            )
    names = tuple("L" + "_".join(map(str, b)) for b in exps)
    return RingModel(
        "K(%s)" % " x ".join("P^%d" % n for n in ns),
        GroupPresentation((0,) * rank, names),
        basis_vec(0),
        mul,
        (1,) * rank,
        [[basis_vec(i)] for i in range(rank)],
        trunc=trunc,
    )


def graded_ranks(ns, kmax):
    """The closed form: the rank of the free group gr^k for 0 <= k < kmax."""
    exps = itertools.product(*(range(n + 1) for n in ns))
    counts = [0] * kmax
    for a in exps:
        if sum(a) < kmax:
            counts[sum(a)] += 1
    return counts


def _members(limit):
    """Every ns = (n1 >= ... >= nr >= 1) with rank prod(n_i + 1) <= limit."""
    out = []

    def extend(prefix, largest, rank):
        if prefix:
            out.append(tuple(prefix))
        for n in range(1, largest + 1):
            if rank * (n + 1) <= limit:
                extend(prefix + [n], n, rank * (n + 1))

    extend([], limit - 1, 1)
    return out


MEMBERS = _members(16)


def test_members_enumerated():
    # 15 single factors, 11 pairs, (1,1,1) to (3,1,1) and (1,1,1,1)
    assert len(MEMBERS) == 30
    for ns in [(3,), (1, 1), (2, 2), (3, 3), (1, 1, 1, 1), (2, 1, 1), (7,), (15,), (3, 1, 1)]:
        assert ns in MEMBERS
    assert (2, 2, 1) not in MEMBERS and (16,) not in MEMBERS


def test_line_powers_satisfy_the_relation():
    # (L - 1)^(n+1) = sum_e C(n+1, e) (-1)^(n+1-e) L^e vanishes
    for n in range(1, 8):
        powers = _line_powers(n)
        rel = [sum((-1) ** (n + 1 - e) * math.comb(n + 1, e) * powers[e][j]
                   for e in range(n + 2)) for j in range(n + 1)]
        assert rel == [0] * (n + 1), n
        # and every power has rank 1
        for e in range(n + 1, 2 * n + 1):
            assert sum(powers[e]) == 1, (n, e)


@pytest.mark.parametrize("ns", MEMBERS, ids=lambda ns: "x".join(map(str, ns)))
def test_filtration_matches_closed_form(ns):
    m = projective_product(ns)
    assert validate_model(m).ok, m.name
    kmax = min(sum(ns) + 1, m.trunc)
    f = gamma_filtration(m, kmax)
    assert f.exact, m.name
    assert f.graded == tuple((0,) * r for r in graded_ranks(ns, kmax)), m.name


def _largest_constant(m):
    return max(abs(c) for row in m.products for entries in row for _, c in entries)


def test_structure_constants_reach_the_file_cap_at_p46(tmp_path, capsys):
    # K(P^46) is the smallest K(P^n) whose structure constants reach the
    # 2^128 cap on model-file integers, so its file is refused with exit 2
    assert _largest_constant(projective_product((45,))) < 2 ** 128
    m = projective_product((46,))
    assert _largest_constant(m) >= 2 ** 128
    path = tmp_path / "kp46.json"
    path.write_text(json.dumps(model_to_dict(m)))
    assert run(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "key mul entry 1124: entry of 39 digits, not below 2^128 in absolute value" in err
