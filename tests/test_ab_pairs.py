"""The gain rule of ``tools/ab_pairs.py`` on fixed numbers, and its report
of a failed run."""

import json
import os
import subprocess
import sys

import pytest

from reference import ROOT, load

AB_PAIRS = os.path.join(ROOT, "tools", "ab_pairs.py")
summarize = load("tools/ab_pairs.py").summarize

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


GOOD_RUN = '''import json
print(json.dumps({"correct": True, "failed": 0, "attempted": 1, "metrics": {
    "wall_s": {"value": 1.0, "unit": "s"}}}))
'''
FAILING_RUN = '''import sys
print("first line of the failure", file=sys.stderr)
print("RuntimeError: the last line of the failure", file=sys.stderr)
sys.exit(1)
'''


def checkout(root, run_py):
    os.makedirs(root / "bench")
    (root / "bench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": "w"}, {"name": "v"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    return str(root)


def test_a_failed_run_names_its_side_seed_exit_code_and_stderr(tmp_path):
    # pair 0 runs the parent first, which succeeds; the change then exits 1
    parent = checkout(tmp_path / "parent", GOOD_RUN)
    change = checkout(tmp_path / "change", FAILING_RUN)
    proc = subprocess.run(
        [sys.executable, AB_PAIRS, parent, change, "--workload", "w", "--pairs", "1",
         "--seed-base", "7"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    assert "change (%s) seed 7: bench/run.py exited 1" % change in proc.stderr
    assert "RuntimeError: the last line of the failure" in proc.stderr
    assert "first line of the failure" in proc.stderr


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_no_pairs_is_a_usage_error_before_any_run(tmp_path, pairs):
    # neither checkout exists, so reading one would end in a traceback
    missing = str(tmp_path / "missing")
    proc = subprocess.run(
        [sys.executable, AB_PAIRS, missing, missing, "--workload", "w", "--pairs", pairs],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "--pairs must be at least 1" in proc.stderr
    assert proc.stdout == ""


def test_an_unknown_workload_is_a_usage_error_before_any_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run was started")

    monkeypatch.setattr(subprocess, "run", no_run)
    parent = checkout(tmp_path / "parent", GOOD_RUN)
    with pytest.raises(SystemExit) as exc:
        load("tools/ab_pairs.py").main([parent, parent, "--workload", "x", "--pairs", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload 'x'" in err and "lists w, v" in err
