"""Differential tests of the sparse group arithmetic, and the stored basis series.

The references are the earlier dense routines: ``reduce`` walked every
coordinate of the vector, and ``project_element`` multiplied the whole
projection matrix by the whole coefficient vector.  They live only as
oracles, ``oracle_reduce`` below and ``oracle_project`` in
``tests/reference.py``.  The presentations mix free and torsion
coordinates, and the entries reach below zero and beyond 2^64, where a
fixed-width shortcut would wrap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gwgamma.abelian import (
    project_element,
    quotient_presentation,
    subgroup_from_generators,
)
from gwgamma.models import gw_projective
from gwgamma.series import TruncSeries
from reference import BIG, oracle_project, presentations, vectors


def oracle_reduce(pres, coeffs):
    if len(coeffs) != pres.rank:
        raise ValueError(
            "coefficient vector of length %d for presentation of rank %d"
            % (len(coeffs), pres.rank)
        )
    return tuple(c % o if o else c for c, o in zip(coeffs, pres.orders))


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@SETTINGS
@given(st.data())
def test_reduce_matches_oracle(data):
    pres = data.draw(presentations())
    v = data.draw(vectors(pres))
    assert pres.reduce(v) == oracle_reduce(pres, v)
    assert pres.reduce(list(v)) == oracle_reduce(pres, list(v))


@SETTINGS
@given(st.data())
def test_reduce_refuses_wrong_length_as_oracle(data):
    pres = data.draw(presentations())
    v = data.draw(st.lists(BIG, max_size=7).filter(lambda v: len(v) != pres.rank))
    with pytest.raises(ValueError) as got:
        pres.reduce(v)
    with pytest.raises(ValueError) as want:
        oracle_reduce(pres, v)
    assert str(got.value) == str(want.value)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_project_element_matches_oracle(data):
    pres = data.draw(presentations(max_rank=4))
    small = st.lists(st.integers(-6, 6), min_size=pres.rank, max_size=pres.rank)
    gens = data.draw(st.lists(small, max_size=3))
    sub = subgroup_from_generators(pres, [pres.element(g) for g in gens])
    qpres, projection = quotient_presentation(pres, sub)
    for _ in range(3):
        elem = pres.element(data.draw(vectors(pres)))
        assert project_element(qpres, projection, elem.coeffs) == oracle_project(
            qpres, projection, elem
        ).coeffs


# ------------------------------------------------------ the stored series

def test_basis_series_is_a_new_series_per_call():
    # the model keeps no series: each call hands out a new one, equal to the
    # series built from the coordinate rows
    m = gw_projective("R", 5)
    lam = m.lambda_on_basis
    for i in range(m.group.rank):
        for order in (0, 3, m.trunc):
            s = m.basis_lambda_series(i, order)
            again = m.basis_lambda_series(i, order)
            fresh = TruncSeries(m, [m.unit.coeffs, *(g.coeffs for g in lam[i])], order)
            assert again is not s and s == again == fresh
