"""A closed-form family: K(P^n1 x ... x P^nr) = Z[L_1..L_r]/((L_i - 1)^(n_i+1)).

It is a special lambda-ring generated by the line elements L_i, so its
gamma-filtration is the filtration by the powers of the augmentation ideal
(x_1, ..., x_r), x_i = L_i - 1 (Fulton and Lang, Ch. III; Atiyah,
*K-Theory*, 2.7).  gr^k is free, of rank the number of exponent vectors a
with |a| = k and a_i <= n_i.

``projective_product`` of ``tests/reference.py`` builds the model on the
basis of the monomials L^b, 0 <= b_i <= n_i, with lambda_t(L^b) = 1 + L^b t.
"""

import itertools
import json
import math

import pytest

from gwgamma.cli import model_to_dict, run
from gwgamma.filtration import gamma_filtration
from gwgamma.lambdaring import validate_model
from reference import MEMBERS, line_powers, projective_product


def graded_ranks(ns, kmax):
    """The closed form: the rank of the free group gr^k for 0 <= k < kmax."""
    exps = itertools.product(*(range(n + 1) for n in ns))
    counts = [0] * kmax
    for a in exps:
        if sum(a) < kmax:
            counts[sum(a)] += 1
    return counts


def test_members_enumerated():
    # 15 single factors, 11 pairs, (1,1,1) to (3,1,1) and (1,1,1,1)
    assert len(MEMBERS) == 30
    for ns in [(3,), (1, 1), (2, 2), (3, 3), (1, 1, 1, 1), (2, 1, 1), (7,), (15,), (3, 1, 1)]:
        assert ns in MEMBERS
    assert (2, 2, 1) not in MEMBERS and (16,) not in MEMBERS


def test_line_powers_satisfy_the_relation():
    # (L - 1)^(n+1) = sum_e C(n+1, e) (-1)^(n+1-e) L^e vanishes
    for n in range(1, 8):
        powers = line_powers(n)
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
