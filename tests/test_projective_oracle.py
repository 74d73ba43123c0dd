"""Differential test of the projective-space builder.

``gw_projective`` reads the lambda-series of each power a^k off one
gamma-polynomial: gamma_t(a^k) is the product of the powers of the twisted
classes' gamma-series 1 + a_j t - a_j t^2, of degree at most 2 top since every
a_j lies in the ideal (a) and (a)^(top+1) = 0, so it is computed at order
2 top and then padded or cut to the truncation.

The reference below is the earlier builder, which worked in lambda-space:
lambda_t(a_j) is 1 + a_j t - a_j t^2 at the truncation, substituted
t -> t/(1+t), for each twisted class, and lambda_t(a^k) the product of their
powers at the full truncation.  It lives here only as an oracle.  The
truncations on either side of 2 top are compared: at trunc < 2 top the
gamma-polynomial is cut, above it padded.

The gamma-polynomials of the powers are computed once per block of powers
and process (``models._block_gammas``); a build that finds its block
computed must give the model of a build that computes it.
"""

import json
import random

import pytest

from gwgamma import models
from gwgamma.cli import model_to_dict
from gwgamma.lambdaring import RingModel, gamma_total
from gwgamma.models import (
    gw_point,
    gw_projective,
    projective_top_power,
    twisted_hyperbolic_classes,
)
from reference import dense_mul, series_of

TRUNCS = (1, 2, 3, 4, 6, 7, 11, 12, 13, 16, 20, 64)
CASES = [(base, r) for base in "CR" for r in range(1, 13)]


def lambda_space_series(ring, nb, top, trunc):
    """The basis lambda-series of P^r as the earlier builder made them."""
    one = ring.unit_element
    out = [series_of([one, b], trunc) for b in ring.basis_elements()[:nb]]
    a_cls = twisted_hyperbolic_classes(ring, top)
    a_series = [series_of([one, a, -a], trunc).substitute_alternating() for a in a_cls[1:]]
    # a^k as an integer combination of a_1..a_k by back-substitution; a^k
    # inherits the product of the matching powers of the a_j lambda-series
    for k in range(1, top + 1):
        residue = list(ring.basis_element(nb + k - 1).value.coeffs)
        power = None
        for j in range(k, 0, -1):
            c = residue[nb + j - 1]
            if c:
                factor = a_series[j - 1].pow(c)
                power = factor if power is None else power * factor
                for t, v in enumerate(a_cls[j].value.coeffs):
                    residue[t] -= c * v
            residue = list(ring.group.reduce(residue))
        assert not any(residue)
        out.append(power)
    return out


def oracle_projective(m, r):
    """The model m of P^r with its basis lambda-series rebuilt by the oracle,
    on a ring built for the arithmetic, in a second ``RingModel``."""
    rank = m.group.rank
    nb = rank - projective_top_power(r)

    def build(lambda_on_basis):
        return RingModel(m.name, m.group, m.unit.coeffs, dense_mul(m), m.aug, lambda_on_basis,
                         [h.coeffs for h in m.hyperbolic], m.trunc)

    ring = build([[]] * rank)
    return build([s.rows()[1:] for s in lambda_space_series(ring, nb, rank - nb, m.trunc)])


@pytest.mark.parametrize("base,r", CASES, ids=["%s%d" % c for c in CASES])
def test_projective_matches_lambda_space_oracle(base, r):
    for trunc in TRUNCS:
        m = gw_projective.__wrapped__(base, r, trunc)
        got = json.dumps(model_to_dict(m), sort_keys=True)
        assert got == json.dumps(model_to_dict(oracle_projective(m, r)), sort_keys=True), trunc


@pytest.mark.parametrize("base,r", CASES, ids=["%s%d" % c for c in CASES])
def test_power_gamma_series_degree_bound(base, r):
    # gamma_t(a^k) read off the stored lambda-series, through the generic
    # path, vanishes above degree 2 top: the order the builder works at;
    # some power reaches it unless a^top has order two (r = 1 mod 4, r > 1)
    m = gw_projective(base, r, trunc=20)
    top = projective_top_power(r)
    nb = m.group.rank - top
    degrees = []
    for k in range(1, top + 1):
        rows = gamma_total(m.basis_element(nb + k - 1)).rows()
        degrees.append(max(d for d, row in enumerate(rows) if any(row)))
    assert max(degrees) <= 2 * top, degrees
    assert max(degrees) == 2 * top or r % 4 == 1, degrees


BLOCK_CASES = [(base, r, trunc) for base in "CR" for r in range(13) for trunc in (1, 4, 16, 20, 64)]


def built_text(base, r, trunc):
    m = gw_projective.__wrapped__(base, r, trunc) if r else gw_point.__wrapped__(base, trunc)
    return json.dumps(model_to_dict(m), sort_keys=True)


def test_projective_blocks_shared_in_any_order():
    # each block first computed by another base or r, or by this model: P^5
    # (a^3 of order two) before P^6 and P^7 (a^3 free) in ascending order
    cold = {}
    for case in BLOCK_CASES:
        models._block_gammas.cache_clear()
        cold[case] = built_text(*case)
    shuffled = list(BLOCK_CASES)
    random.Random(50).shuffle(shuffled)
    for order in (BLOCK_CASES, shuffled):
        models._block_gammas.cache_clear()
        for case in order:
            assert built_text(*case) == cold[case], case
