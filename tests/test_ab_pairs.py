"""The gain rule of ``tools/ab_pairs.py`` on fixed numbers."""

import importlib.util
import os
import sys

import pytest

AB_PAIRS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "ab_pairs.py"
)


def load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", AB_PAIRS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under tools/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


summarize = load_ab_pairs().summarize

PARENT = [27.0, 27.2, 27.1, 27.3, 27.2, 27.1, 27.0, 27.4, 27.2, 27.1]


def test_gain_when_lower_in_every_pair_by_more_than_the_spread():
    s = summarize(PARENT, [v - 0.8 for v in PARENT])
    assert s["n"] == 10 and s["wins"] == 10
    assert s["parent"] == {"median": 27.15, "q1": 27.1, "q3": 27.2}
    assert s["change"]["median"] == pytest.approx(26.35)
    assert s["parent_spread"] == pytest.approx(0.1)
    assert s["gap"] == pytest.approx(0.8)
    assert s["gain"]


def test_no_gain_below_nine_wins_in_ten():
    change = [v - 0.8 for v in PARENT[:8]] + PARENT[8:]  # two ties
    s = summarize(PARENT, change)
    assert s["wins"] == 8 and not s["gain"]


def test_no_gain_when_the_gap_is_inside_the_spread():
    s = summarize(PARENT, [v - 0.05 for v in PARENT])
    assert s["wins"] == 10 and s["gap"] < s["parent_spread"] and not s["gain"]


def test_higher_is_better_counts_the_other_way():
    s = summarize(PARENT, [v + 0.8 for v in PARENT], better="higher")
    assert s["wins"] == 10 and s["gap"] == pytest.approx(0.8) and s["gain"]
    assert not summarize(PARENT, [v + 0.8 for v in PARENT])["gain"]


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        summarize(PARENT, PARENT[:9])


def test_worse_when_the_median_moves_past_the_bound():
    # bound 0.25 of the parent's median 27.15 allows 6.7875
    s = summarize(PARENT, [v + 7.0 for v in PARENT], bound=0.25)
    assert s["verdict"] == "worse"
    higher = summarize(PARENT, [v - 7.0 for v in PARENT], better="higher", bound=0.25)
    assert higher["verdict"] == "worse"


def test_within_bound_when_the_median_moves_less_than_the_bound():
    s = summarize(PARENT, [v + 0.05 for v in PARENT], bound=0.1)
    assert s["gap"] < 0 and s["verdict"] == "within bound"
    assert summarize(PARENT, PARENT, bound=0.1)["verdict"] == "within bound"


def test_unresolved_when_the_spread_is_wider_than_the_bound():
    # spread 0.1 of a median 27.15 is wider than a bound of 0.001 (0.02715)
    s = summarize(PARENT, list(PARENT), bound=0.001)
    assert s["parent_spread"] > 0.001 * s["parent"]["median"]
    assert s["verdict"] == "unresolved"
    # unless every change run beats every parent run
    faster = summarize(PARENT, [v - 0.5 for v in PARENT], bound=0.001)
    assert faster["verdict"] == "within bound"


def test_no_verdict_without_a_bound():
    assert "verdict" not in summarize(PARENT, PARENT)
