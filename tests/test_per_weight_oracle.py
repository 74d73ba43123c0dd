"""Differential test of the piece recursion on the builtins and group rings.

The reference is ``test_product_table_oracle``'s per-weight spans, built
from ring-element products and sharing no product with the code it
checks.  Pieces, weight cap, ``exact`` and ``warnings`` must match, and
each F^kmax must be closed under the gamma-values, on every CLI builtin at
trunc 2, 4 and 8 with kmax 1..trunc and on the group rings Z[C4], Z[C2^2],
Z[C2^3] and Z[C2 x C4] at kmax 1..8.  The certified cap lies beyond the
truncation on 252 of these 718 results, most of them projective spaces;
both counts are asserted, so a range that shrinks fails.
"""

import pytest

from gwgamma.filtration import gamma_filtration
from gwgamma.models import BUILTINS
from test_filtration_oracle import CLI_BUILTINS, group_ring
from test_product_table_oracle import assert_matches_oracle

TRUNCS = (2, 4, 8)
GROUP_RINGS = ((4,), (2, 2), (2, 2, 2), (2, 4))
GROUP_RING_KMAX = 8


def test_builtin_and_group_ring_ranges():
    results = [gamma_filtration(BUILTINS[name](**kwargs, trunc=trunc), kmax)
               for name, kwargs in CLI_BUILTINS for trunc in TRUNCS
               for kmax in range(1, trunc + 1)]
    results += [gamma_filtration(group_ring(orders), kmax)
                for orders in GROUP_RINGS for kmax in range(1, GROUP_RING_KMAX + 1)]
    assert (len(results), sum(not f.exact for f in results)) == (718, 252)


@pytest.mark.parametrize("trunc", TRUNCS)
@pytest.mark.parametrize(
    "name,kwargs", CLI_BUILTINS,
    ids=["%s%s" % (n, "".join("-%s" % v for v in kw.values())) for n, kw in CLI_BUILTINS],
)
def test_builtin_matches_per_weight_spans(name, kwargs, trunc):
    assert_matches_oracle(BUILTINS[name](**kwargs, trunc=trunc), range(1, trunc + 1))


@pytest.mark.parametrize("orders", GROUP_RINGS)
def test_group_ring_matches_per_weight_spans(orders):
    assert_matches_oracle(group_ring(orders), range(1, GROUP_RING_KMAX + 1))
