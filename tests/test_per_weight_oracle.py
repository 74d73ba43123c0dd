"""Differential test of the piece recursion on the builtins and group rings.

The reference is the per-weight spans of ``assert_pieces_match_oracle`` in
``tests/reference.py``, built from ring-element products and sharing no
product with the code it checks.  Pieces, weight cap, ``exact`` and ``warnings`` must match, and
each F^kmax must be closed under the gamma-values, on every CLI builtin at
trunc 2, 4 and 8 with kmax 1..trunc and on the group rings Z[C4], Z[C2^2],
Z[C2^3] and Z[C2 x C4] at kmax 1..8.  The certified cap lies beyond the
truncation on 252 of these 718 results, most of them projective spaces;
both counts are asserted, so a range that shrinks fails.
"""

import pytest

from gwgamma.filtration import gamma_filtration
from gwgamma.models import BUILTINS
from reference import CLI_BUILTINS, CLI_IDS, GROUPS, assert_pieces_match_oracle, group_ring

TRUNCS = (2, 4, 8)
GROUP_RING_KMAX = 8


def test_builtin_and_group_ring_ranges():
    results = [gamma_filtration(BUILTINS[name](**kwargs, trunc=trunc), kmax)
               for name, kwargs in CLI_BUILTINS for trunc in TRUNCS
               for kmax in range(1, trunc + 1)]
    results += [gamma_filtration(group_ring(orders), kmax)
                for orders in GROUPS for kmax in range(1, GROUP_RING_KMAX + 1)]
    assert (len(results), sum(not f.exact for f in results)) == (718, 252)


@pytest.mark.parametrize("trunc", TRUNCS)
@pytest.mark.parametrize("name,kwargs", CLI_BUILTINS, ids=CLI_IDS)
def test_builtin_matches_per_weight_spans(name, kwargs, trunc):
    assert_pieces_match_oracle(BUILTINS[name](**kwargs, trunc=trunc), range(1, trunc + 1))


@pytest.mark.parametrize("orders", GROUPS)
def test_group_ring_matches_per_weight_spans(orders):
    assert_pieces_match_oracle(group_ring(orders), range(1, GROUP_RING_KMAX + 1))
