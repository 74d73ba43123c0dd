"""One record of derived state per ring content, shared by its live models.

What the checks and the filtration derive from a model depends on its
content alone: the group with its basis labels, the unit, the products, the
augmentation, the hyperbolic classes, the truncation and the basis
lambda-columns, never the name.  ``lambdaring._derived`` keeps one record
per content while some model holds it, so P^2 and P^3, or
``gw_punctured_a5`` at every f, are filtered once.  Here every shared
result must equal that of a model built on an emptied registry, models of
different content must not share, and a dropped content leaves no entry.
"""

import gc
import json
import random

import pytest

from gwgamma import lambdaring
from gwgamma.abelian import GroupPresentation
from gwgamma.cli import dump_model, parse_model
from gwgamma.filtration import gamma_filtration, witt_filtration
from gwgamma.lambdaring import RingModel, _derived, validate_model
from gwgamma.models import BUILTINS, gw_projective, gw_punctured_a5

from test_filtration_memo import counted_hnfs, filtered
from test_filtration_oracle import CLI_BUILTINS, fresh, group_ring, uncached
from test_filtration_refusals import (
    nonzero_rank_ring,
    unkilled_torsion_ring,
    zero_augmentation_ring,
)
from test_multiplicativity import GROUPS

BUILDS = [(name, BUILTINS[name], kwargs) for name, kwargs in CLI_BUILTINS] + [
    ("group_ring", group_ring, {"orders": orders}) for orders in GROUPS]


def kmax_of(m):
    return min(6, m.trunc)


@pytest.fixture(scope="module")
def references():
    """The results of each build made on an emptied registry and filtered
    at once, so that it derives everything itself."""
    out = []
    for _, build, kwargs in BUILDS:
        m = fresh(build)(**kwargs)
        out.append(filtered(m, kmax_of(m)))
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_shared_results_equal_unshared_ones(references, seed):
    # each case built twice anew and once interned, all held and filtered
    # in a drawn order: equal contents share a record whoever comes first
    lambdaring._RECORDS.clear()
    new = [(i, uncached(build)(**kwargs)) for i, (_, build, kwargs) in enumerate(BUILDS)
           for _ in range(2)]
    models = new + [(i, build(**kwargs)) for i, (_, build, kwargs) in enumerate(BUILDS)]
    random.Random(seed).shuffle(models)
    for i, m in models:
        f = gamma_filtration(m, kmax_of(m))
        assert f.model is m and f.group is m.group
        assert filtered(m, kmax_of(m)) == references[i], (BUILDS[i][0], m.name)
    # one record per content among the new models; an interned one may hold
    # a record that an earlier emptying of the registry left unlisted
    records = {id(_derived(m)) for _, m in new}
    assert len(records) == len({lambdaring._content(m) for _, m in new}) < len(BUILDS)


@pytest.mark.parametrize("base", "CR")
@pytest.mark.parametrize("r", [2, 6, 10])
def test_tower_pairs_share_one_record(monkeypatch, base, r):
    # P^r and P^(r+1) for r = 2 mod 4 are one ring: rho = ceil(r/2) is equal
    # and a^rho is absent from P^(r+1); the tower filters them at one trunc
    trunc = 16 if r <= 9 else 20
    a, b = (fresh(gw_projective)(base, s, trunc=trunc) for s in (r, r + 1))
    assert a.name != b.name
    fa = gamma_filtration(a, 8)
    calls = counted_hnfs(monkeypatch)
    fb = gamma_filtration(b, 8)
    assert calls == [] and _derived(a) is _derived(b)
    assert fb.model is b and fb.pieces == fa.pieces
    assert witt_filtration(b, fb).pieces == witt_filtration(a, fa).pieces


def test_punctured_spaces_share_one_record():
    models = [gw_punctured_a5.__wrapped__(f) for f in range(2, 7)]
    assert len({m.name for m in models}) == 5
    assert len({id(_derived(m)) for m in models}) == 1


def test_projective_tower_has_eighteen_contents():
    models = [gw_projective.__wrapped__(base, r, trunc=16 if r <= 9 else 20)
              for base in "CR" for r in range(1, 13)]
    assert len({id(_derived(m)) for m in models}) == 18


def test_renamed_model_file_shares_the_builtins_record(monkeypatch, tmp_path):
    m = gw_projective.__wrapped__("R", 5)
    path = tmp_path / "model.json"
    dump_model(m, str(path))
    data = json.loads(path.read_text())
    data["name"] = "renamed"
    path.write_text(json.dumps(data))
    parsed = parse_model(str(path))
    assert parsed.name == "renamed" and parsed is not m
    f = gamma_filtration(m, 5)
    calls = counted_hnfs(monkeypatch)
    assert gamma_filtration(parsed, 5).pieces == f.pieces
    assert calls == [] and _derived(parsed) is _derived(m)


def ring(**changes):
    """Z[L]/(L^2 - 1) with lambda_t(L) = 1 + L t and the hyperbolic class
    1 + L, at trunc 8, with the given arguments changed."""
    args = dict(
        name="ring", group=GroupPresentation((0, 0), ("one", "L")), unit=(1, 0),
        mul={(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (1, 0)}, aug=(1, 1),
        lambda_on_basis=[[(1, 0)], [(0, 1)]], hyperbolic=[(1, 1)], trunc=8)
    args.update(changes)
    return RingModel(**args)


@pytest.mark.parametrize("changes", [
    {"trunc": 9},
    {"hyperbolic": None},
    {"hyperbolic": [(2, 2)]},
    {"group": GroupPresentation((0, 0), ("one", "M"))},
    {"mul": {(0, 0): (1, 0), (0, 1): (0, 1), (1, 1): (0, 1)}},
    {"lambda_on_basis": [[(1, 0)], [(0, 1), (1, -1)]]},
], ids=["trunc", "no-hyperbolic", "hyperbolic", "label", "product", "lambda-row"])
def test_one_difference_shares_no_record(changes):
    base, other = ring(), ring(**changes)
    filtered(base, 2)
    assert _derived(base) is not _derived(other)
    got = filtered(other, 2)
    lambdaring._RECORDS.clear()
    assert got == filtered(ring(**changes), 2)


def test_truncation_alone_shares_no_record():
    # a stored column is trunc + 1 long, so columns of equal content have
    # equal truncations; with a zero unit and no lambda-rows no column is
    # stored, and the truncation in the key alone tells the contents apart
    def bare(trunc):
        return RingModel("bare", GroupPresentation((0,), ("b",)), (0,), {}, (0,), [[]],
                         trunc=trunc)

    low, high = bare(1), bare(2)
    assert low._basis_columns == high._basis_columns == [{}]
    assert _derived(low) is not _derived(high)
    assert _derived(bare(1)) is _derived(low)


def test_equal_content_under_another_name_shares():
    # a trailing zero lambda-row is dropped, so the contents are equal
    a = ring()
    b = ring(name="other", lambda_on_basis=[[(1, 0)], [(0, 1), (0, 0)]])
    assert _derived(a) is _derived(b)


def test_dropped_content_leaves_no_entry():
    lambdaring._RECORDS.clear()
    m = ring(name="dropped")
    gamma_filtration(m, 3)
    assert len(lambdaring._RECORDS) == 1
    del m
    gc.collect()
    assert len(lambdaring._RECORDS) == 0


@pytest.mark.parametrize("build", [zero_augmentation_ring, nonzero_rank_ring,
                                   unkilled_torsion_ring],
                         ids=["augmentation", "rank", "torsion"])
def test_refused_content_raises_on_each_model(monkeypatch, build):
    first, second = build(), build()
    with pytest.raises(ValueError) as refused:
        gamma_filtration(first, kmax=1)
    # the second model reads the cases of the shared record, running none
    calls = []
    checks = lambdaring._checks
    monkeypatch.setattr(lambdaring, "_checks", lambda m: calls.append(m) or checks(m))
    for _ in range(2):
        with pytest.raises(ValueError) as again:
            gamma_filtration(second, kmax=1)
        assert str(again.value) == str(refused.value)
    assert calls == [] and _derived(first) is _derived(second)
    assert validate_model(second) == validate_model(first)
    # the record keeps the check cases alone: no gamma-values, no levels
    assert list(_derived(first)) == ["checks"]
