"""The filtration memo and the interned builtins against the uncached path.

A builtin constructor returns one model per set of arguments while anyone
holds it, and ``gamma_filtration`` keeps in the record of the model's
content what it derives from that content alone: the pieces built so far,
the graded groups, the Witt quotient and the Witt images.  A call at kmax
extends the stored pieces or slices them.  Here each model of the
filtration-sweep and of the CLI range, the benchmark's group rings and the
K(P^n1 x ... x P^nr) members of rank at most 16 are filtered in a drawn
order of kmax values, which mixes extensions with slices, on one shared
model; every result must equal the result of a fresh, uncached build on
an emptied registry of content records, filtered at that kmax alone.
"""

import dataclasses
import functools
import gc
import importlib.util
import os
import re
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import gwgamma
from gwgamma import abelian, cli, filtration, series
from gwgamma.abelian import kernel_basis
from gwgamma.cli import dump_model, model_to_dict, parse_model
from gwgamma.filtration import _gamma_values, gamma_filtration, witt_filtration, witt_quotient
from gwgamma.lambdaring import _derived, validate_model, verify_special_pair
from gwgamma.models import BUILTINS, gw_point, gw_projective, gw_surface_cxp1, line_elements

from test_filtration_oracle import CLI_BUILTINS, fresh as fresh_build, group_ring, uncached
from test_filtration_refusals import (
    nonzero_rank_ring,
    unkilled_torsion_ring,
    zero_augmentation_ring,
)
from test_projective_products import MEMBERS, projective_product

JOBS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "jobs.py"
)


def load_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    jobs = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under bench/
    try:
        spec.loader.exec_module(jobs)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return jobs


JOBS_MODULE = load_jobs()


def _builtin_cases():
    """(name, kwargs) of every CLI builtin and every sweep builtin."""
    cases = list(CLI_BUILTINS)
    for name, kwargs, _ in JOBS_MODULE.SWEEP_BUILTINS:
        if (name, kwargs) not in cases:
            cases.append((name, kwargs))
    return cases


# key: (shared build, uncached build, kmax values)
MODELS = {}
for _name, _kwargs in _builtin_cases():
    _key = "%s%s" % (_name, "".join("-%s" % v for v in _kwargs.values()))
    MODELS[_key] = (
        lambda n=_name, kw=_kwargs: BUILTINS[n](**kw),
        lambda n=_name, kw=_kwargs: uncached(BUILTINS[n])(**kw),
        range(1, 9),
    )
for _label, (_, _cap) in JOBS_MODULE.GROUP_RINGS.items():
    _build = (lambda label=_label: JOBS_MODULE.group_ring(gwgamma, label))
    MODELS["Z[%s]" % _label] = (_build, _build, range(1, _cap + 1))
for _ns in MEMBERS:
    _build = (lambda ns=_ns: projective_product(ns))
    MODELS["K" + "x".join(map(str, _ns))] = (
        _build, _build, range(1, min(sum(_ns) + 1, 16) + 1))


def fields(f):
    return (f.group, f.kmax, f.pieces, f.graded, f.weight_cap, f.exact, f.warnings)


def results(m, kmax):
    f = gamma_filtration(m, kmax)
    assert f.model is m
    w = witt_filtration(m, f) if m.hyperbolic is not None else None
    return fields(f), w and fields(w)


@pytest.fixture(scope="module")
def held():
    """One shared model per key, held while this module runs, so that each
    drawn order continues the memo the earlier ones left; and the results of
    an uncached build filtered at one kmax, by (key, kmax)."""
    return {}, {}


@pytest.mark.parametrize("key", list(MODELS))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_memo_matches_uncached_build(held, key, data):
    shared, uncached, kmaxes = MODELS[key]
    models, references = held
    m = models.setdefault(key, shared())
    if shared is not uncached:
        assert shared() is m
    order = data.draw(st.lists(st.sampled_from(kmaxes), min_size=2, max_size=4))
    for kmax in order:
        if (key, kmax) not in references:
            references[key, kmax] = results(fresh_build(uncached)(), kmax)
        assert results(m, kmax) == references[key, kmax], (key, order, kmax)


def test_orders_extend_and_slice():
    # extensions 2 -> 5 -> 8, then slices 8 -> 2 and 2 -> 5, on one memo
    m = gw_surface_cxp1.__wrapped__(3)
    got = {k: gamma_filtration(m, k) for k in (2, 5, 8, 2, 5)}
    fresh = gamma_filtration(fresh_build(gw_surface_cxp1)(3), 8)
    assert got[8].pieces == fresh.pieces
    assert got[2].pieces == fresh.pieces[:3]
    assert got[5].graded == fresh.graded[:5]


def counted_hnfs(monkeypatch):
    calls = []
    hnf = abelian.hnf_columns
    monkeypatch.setattr(
        abelian, "hnf_columns", lambda *args: calls.append(args) or hnf(*args)
    )
    return calls


def test_pieces_are_built_once(monkeypatch):
    # an extension builds only the new pieces, one HNF each; a slice builds
    # none, and neither does a second Witt filtration or Witt quotient
    calls = counted_hnfs(monkeypatch)
    m = fresh_build(gw_projective)("R", 6)
    f = gamma_filtration(m, kmax=2)
    assert len(calls) == 2
    gamma_filtration(m, kmax=5)
    assert len(calls) == 5
    gamma_filtration(m, kmax=3)
    gamma_filtration(m, kmax=5)
    assert len(calls) == 5
    witt_filtration(m, f)
    before = len(calls)
    witt_filtration(m, f)
    witt_quotient(m)
    assert len(calls) == before


def grow_meanwhile(monkeypatch, key, n, call):
    """Make ``_grown``, growing the `key` levels to n, run call() at its
    first new level, after it read the stored pair: a concurrent call."""
    real = filtration._grown

    def grown(levels, name, size, piece):
        pending = [call] if (name, size) == (key, n) else []

        def nested(k, below):
            while pending:
                pending.pop()()
            return piece(k, below)

        return real(levels, name, size, nested)

    monkeypatch.setattr(filtration, "_grown", grown)


def test_a_shorter_extension_keeps_the_longer_levels(monkeypatch):
    # while one call builds F^0..F^3, another extends the memo to F^8; the
    # memo keeps F^0..F^8, and the first call still returns its own kmax
    m = gw_surface_cxp1.__wrapped__(6)
    grow_meanwhile(monkeypatch, "gamma", 4, lambda: gamma_filtration(m, 8))
    f = gamma_filtration(m, 3)
    pieces, graded = _derived(m)["gamma"]
    assert (len(pieces), len(graded)) == (9, 8)
    monkeypatch.undo()
    fresh = fresh_build(gw_surface_cxp1)(6)
    assert dataclasses.replace(f, model=None) == filtered(fresh, 3)[0]
    assert filtered(m, 8) == filtered(fresh, 8)


def test_a_shorter_witt_extension_keeps_the_longer_levels(monkeypatch):
    # while one call projects F^0..F^3, another projects F^0..F^8; the memo
    # keeps the nine Witt levels, and the first call still returns its four
    m = gw_surface_cxp1.__wrapped__(6)
    f3, f8 = gamma_filtration(m, 3), gamma_filtration(m, 8)
    grow_meanwhile(monkeypatch, "witt", 4, lambda: witt_filtration(m, f8))
    w3 = witt_filtration(m, f3)
    images, graded = _derived(m)["witt"]
    assert (len(images), len(graded)) == (9, 8)
    monkeypatch.undo()
    fresh = fresh_build(gw_surface_cxp1)(6)
    assert dataclasses.replace(w3, model=None) == filtered(fresh, 3)[1]
    assert filtered(m, 8) == filtered(fresh, 8)


@pytest.mark.parametrize("levels", ["gamma", "witt"])
def test_a_call_between_the_record_writes_finds_the_levels(monkeypatch, levels):
    # a filtration of P^3 over R, one content with P^2, made while P^2's
    # call builds F^0 of the `levels`, as a concurrent thread could: "gamma"
    # is stored before "values" and "witt" before "witt_quotient", so the
    # nested call finds the levels of whatever it finds
    a, b = (fresh_build(gw_projective)("R", r) for r in (2, 3))
    if levels == "witt":
        gamma_filtration(a, 3)
    pending, nested = [lambda: filtered(b, 3)], []
    real = filtration.full_subgroup

    def whole(group):
        while pending:
            nested.append(pending.pop()())
        return real(group)

    monkeypatch.setattr(filtration, "full_subgroup", whole)
    got = filtered(a, 3)
    monkeypatch.undo()
    want = filtered(fresh_build(gw_projective)("R", 2), 3)
    assert got == nested[0] == want


def test_gamma_values_build_each_basis_power_once(monkeypatch):
    # every generator of F^1 of Z[C2^4] is b_i - b_0: T^2..T^16 of
    # lambda_t(b_0) for its power -1 once, and one product per generator;
    # 240 products when each generator built its own power table
    m = JOBS_MODULE.group_ring(gwgamma, "C2^4")
    gens = [m.group.reduce(v) for v in kernel_basis(m.aug)]
    assert (m.trunc, len(gens)) == (16, 15)
    calls = []
    real = series._product

    def product(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(series, "_product", product)
    assert _gamma_values(m, gens, m.trunc)
    assert 0 < len(calls) <= 30


def test_stable_pieces_are_one_object():
    # F^5..F^8 of a surface equal F^4, and are stored as that piece
    f = gamma_filtration(gw_surface_cxp1.__wrapped__(4), kmax=8)
    assert f.pieces[4].columns != f.pieces[3].columns
    assert all(f.pieces[k] is f.pieces[4] for k in range(5, 9))


def test_equal_witt_images_are_one_object():
    # F^3 of P^1 over C differs from F^2, but its Witt image equals that of
    # F^2 and is stored as that image; likewise every equal Witt level
    f = gamma_filtration(gw_projective.__wrapped__("C", 1), kmax=8)
    w = witt_filtration(f.model, f)
    assert f.pieces[3] is not f.pieces[2]
    assert w.pieces[3] is w.pieces[2]
    shared = 0
    for name, kwargs in CLI_BUILTINS:
        m = uncached(BUILTINS[name])(**kwargs)
        if m.hyperbolic is None:
            continue
        f = gamma_filtration(m, kmax=8)
        images = witt_filtration(m, f).pieces
        for k in range(1, 9):
            if images[k].columns == images[k - 1].columns:
                assert images[k] is images[k - 1]
                shared += f.pieces[k] is not f.pieces[k - 1]
    assert shared == 54  # Witt levels shared though their gamma pieces differ


def test_relation_columns_are_the_presentation_tuples():
    # a piece column equal to a relation vector o_i e_i is that tuple of the
    # presentation, held once however many pieces it spans
    m = fresh_build(gw_surface_cxp1)(4)
    relations = {r: r for r in m.group._relations}
    shared = 0
    for piece in gamma_filtration(m, kmax=8).pieces[1:]:
        for col in piece.columns:
            if col in relations:
                assert col is relations[col]
                shared += 1
    assert shared


def test_witt_image_of_the_whole_group_is_built_once():
    m = gw_surface_cxp1.__wrapped__(3)
    qpres, _ = witt_quotient(m)
    first = witt_filtration(m, gamma_filtration(m, kmax=2)).pieces[0]
    assert first == abelian.full_subgroup(qpres)
    assert witt_filtration(m, gamma_filtration(m, kmax=5)).pieces[0] is first


def test_whole_groups_of_equal_rank_share_their_identity_columns():
    # F^0 of every model is the identity HNF of its rank, held once
    a, b = gw_projective.__wrapped__("C", 4), gw_projective.__wrapped__("R", 1)
    assert a.group != b.group and a.group.rank == b.group.rank == 3
    fa, fb = gamma_filtration(a, kmax=1), gamma_filtration(b, kmax=1)
    assert fa.pieces[0].columns is fb.pieces[0].columns
    assert fa.pieces[0].pivot_rows is fb.pieces[0].pivot_rows
    assert fa.pieces[0] == abelian.subgroup_from_generators(a.group, a.group.basis())


def test_equal_products_share_one_entry_tuple():
    m = group_ring.__wrapped__((2, 2, 2, 2))
    by_value = {}
    for row in m.products:
        for entries in row:
            assert by_value.setdefault(entries, entries) is entries
    assert len(by_value) == m.group.rank


def test_witt_quotient_projection_is_immutable():
    m = gw_surface_cxp1.__wrapped__(2)
    qpres, projection = witt_quotient(m)
    assert isinstance(projection, tuple)
    assert all(isinstance(row, tuple) for row in projection)
    assert witt_quotient(m) == (qpres, projection)


@pytest.mark.parametrize("build,message", [
    (zero_augmentation_ring, re.escape("d(b1*b1) = 1 != 0")),
    (nonzero_rank_ring, re.escape("d(lambda^2(b1)) = 1 != C(0,2)")),
    (unkilled_torsion_ring, re.escape("order 2 of b2 does not kill b2*b2")),
], ids=["augmentation", "rank", "torsion"])
def test_refused_model_raises_on_every_call(build, message):
    m = build()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            gamma_filtration(m, kmax=1)
        with pytest.raises(ValueError, match=message):
            witt_filtration(m, gamma_filtration(m, kmax=1))


def test_equal_calls_share_one_model():
    m = gw_projective("C", 3)
    assert gw_projective(base="C", r=3, trunc=16) is m
    assert gw_projective("C", 3, 16) is m
    assert gw_projective("C", 3, trunc=15) is not m
    assert gw_projective.__wrapped__("C", 3) is not m
    assert BUILTINS["gw_point_R"]() is BUILTINS["gw_point_R"](trunc=16)


def test_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(ValueError, match="r must lie in 1..12"):
            gw_projective("C", 13)


def test_unhashable_argument_goes_to_the_build():
    # a list argument has no interning key, so the build alone judges it and
    # raises its own error; the interned models are untouched
    m = gw_point("C")
    for _ in range(2):
        with pytest.raises(ValueError, match="base must be 'C' or 'R'"):
            gw_point(base=["C"])
    assert gw_point("C") is m


def exercise(m):
    """Validate, filter, Witt-filter, check one special pair and list the
    line elements of m, keeping no result.  A surface with s line classes
    has 2^s line elements, closed pairwise, so they are listed up to rank
    12 (s = 4)."""
    validate_model(m)
    f = gamma_filtration(m, kmax=3)
    if m.hyperbolic is not None:
        witt_filtration(m, f)
    basis = m.basis_elements()
    verify_special_pair(basis[0], basis[-1])
    if m.group.rank <= 12:
        line_elements(m)


def test_dropped_builtin_is_released(tmp_path):
    # with the cycle collector off, reference counting alone frees a dropped
    # model: it holds no series, so nothing it holds points back at it.  Its
    # stored columns come out of use unchanged; a series at the truncation
    # shares them, so no series operation may write a column in place.  A
    # parsed file's model is held by the intern of file texts until it is
    # cleared, and a second parse of the same bytes returns it
    path = tmp_path / "model.json"
    dump_model(gw_projective.__wrapped__("R", 5), str(path))
    builds = [
        # an interned call no other test makes, so nothing else holds it
        lambda: gw_surface_cxp1(5, trunc=11),
        lambda: parse_model(str(path)),
    ] + [functools.partial(uncached(BUILTINS[name]), **kwargs)
         for name, kwargs in CLI_BUILTINS]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for build in builds:
            m = build()
            stored = model_to_dict(m)
            exercise(m)
            assert model_to_dict(m) == stored, m.name
            if build is builds[1]:
                assert parse_model(str(path)) is m
                cli._MODELS.clear()
            ref = weakref.ref(m)
            del m
            assert ref() is None, stored["name"]
    finally:
        if enabled:
            gc.enable()


def filtered(m, kmax):
    """The fields but the model of gamma_filtration(m, kmax) and, for a
    model with hyperbolic classes, of its Witt filtration."""
    f = gamma_filtration(m, kmax)
    results = [f] if m.hyperbolic is None else [f, witt_filtration(m, f)]
    return [dataclasses.replace(r, model=None) for r in results]


def filter_in_threads(builds, kmaxes, want):
    """Filter fresh models from one thread per kmax, in five rounds under a
    switch interval of 1e-6, each round one model per build, taken by the
    threads in turn; the errors the threads raised, each result
    ``filtered(m, kmax)`` compared with want[kmax]."""
    errors = []

    def run(m, kmax):
        try:
            assert filtered(m, kmax) == want[kmax]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            models = [build() for build in builds]
            threads = [threading.Thread(target=run, args=(models[n % len(models)], k))
                       for n, k in enumerate(kmaxes)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    return errors


def test_threads_filtering_one_model_share_no_series_table():
    # every generator b_i - b_0 of F^1 of Z[C2^4] raises lambda_t(b_0) to
    # the power -1; threads filtering one model must not fill one power
    # table of that series at once
    build = functools.partial(fresh_build(group_ring), (2, 2, 2, 2))
    want = {3: filtered(build(), 3)}
    assert filter_in_threads([build], (3, 3, 3, 3), want) == []


def test_threads_extending_one_memo_read_whole_pieces():
    # interned models are shared across the process, so threads may extend
    # one memo at the same time; each must read F^0..F^kmax whole
    build = functools.partial(fresh_build(gw_surface_cxp1), 6)
    want = {k: filtered(build(), k) for k in (3, 8)}
    assert filter_in_threads([build], (8, 3, 8, 3), want) == []


def test_threads_filtering_two_models_of_one_content_read_whole_records():
    # P^2 and P^3 over R are one ring under two names: threads filtering
    # both share one record, and a thread that finds the gamma-values or the
    # Witt quotient there must find their levels too; fresh_build empties
    # the registry, and neither model looks its record up before the threads
    builds = [functools.partial(fresh_build(gw_projective), "R", r) for r in (2, 3)]
    want = {k: filtered(builds[0](), k) for k in (3, 8)}
    assert {k: filtered(builds[1](), k) for k in (3, 8)} == want
    assert filter_in_threads(builds, (3, 3, 8, 8, 8, 8, 3, 3), want) == []
