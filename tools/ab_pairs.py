"""Alternating A/B pairs of the benchmark: a parent checkout against a change.

    python3 tools/ab_pairs.py PARENT CHANGE --workload filtration-sweep \\
        --pairs 10 --seed-base 41 --seconds 30

Pair p runs ``bench/run.py --trace 0`` at seed ``seed-base + p`` in both
checkouts, each from its own root, the parent first in even pairs and the
change first in odd ones.  For each end-to-end metric that the parent's
``BENCHMARK.json`` lists, it prints each side's median and quartiles, the
parent's spread between quartiles, the number of pairs the change wins and
the verdict of the gain rule: the change wins at least nine tenths of the
pairs, ties counting for neither, and the medians differ, in the better
direction, by more than the parent's spread.  It also prints the verdict of
the no-regression rule, with the metric's ``bound`` from ``BENCHMARK.json``
read as a fraction of the parent's median:

* "worse": the change's median is worse than the parent's by more than the
  bound;
* "unresolved": the parent's spread is wider than the bound, and not every
  change run beats every parent run;
* "within bound": otherwise.

Both verdicts go into the JSON summary line too.  A workload that the
parent's ``BENCHMARK.json`` does not list is a usage error, before any run.
A run that exits non-zero stops the pairs: the side, the seed, the exit
code and the last lines of the run's stderr are printed, and the tool
exits non-zero.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

STDERR_LINES = 10  # the tail of a failed run's stderr that is printed


def summarize(parent: list[float], change: list[float], better: str = "lower",
              bound: float | None = None) -> dict:
    """The gain rule on paired runs, parent[p] against change[p], and, given
    the metric's bound, the no-regression verdict."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on both sides")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    out = {"n": len(parent), "wins": wins}
    for side, values in (("parent", parent), ("change", change)):
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[side] = {"median": median, "q1": q1, "q3": q3}
    out["parent_spread"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["gap"] = sign * (out["parent"]["median"] - out["change"]["median"])
    out["gain"] = 10 * wins >= 9 * len(parent) and out["gap"] > out["parent_spread"]
    if bound is not None:
        allowed = bound * out["parent"]["median"]
        beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
        if -out["gap"] > allowed:
            out["verdict"] = "worse"
        elif out["parent_spread"] > allowed and not beats_all:
            out["verdict"] = "unresolved"
        else:
            out["verdict"] = "within bound"
    return out


def run_bench(side: str, root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON line of one untraced run in the checkout at root, the parent
    or the change side.  A run that exits non-zero or fails a job stops the
    pairs with a message naming the side and the seed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit("%s (%s) seed %d: bench/run.py exited %d; its stderr ends:\n%s"
                         % (side, root, seed, proc.returncode,
                            "\n".join(proc.stderr.splitlines()[-STDERR_LINES:])))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("%s (%s) seed %d: %d of %d jobs failed"
                         % (side, root, seed, result["failed"], result["attempted"]))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    workloads = [w["name"] for w in declared["workloads"]]
    if args.workload not in workloads:
        ap.error("unknown workload %r; the parent's BENCHMARK.json lists %s"
                 % (args.workload, ", ".join(workloads)))
    metrics = declared["end_to_end"]
    runs: dict = {"parent": [], "change": []}
    for p in range(args.pairs):
        seed = args.seed_base + p
        sides = ("parent", "change") if p % 2 == 0 else ("change", "parent")
        for side in sides:
            root = getattr(args, side)
            runs[side].append(run_bench(side, root, args.workload, seed, args.seconds)["metrics"])
        print("pair %d seed %d (%s first): %s" % (p, seed, sides[0], "  ".join(
            "%s %.4f -> %.4f" % (m["name"], runs["parent"][-1][m["name"]]["value"],
                                 runs["change"][-1][m["name"]]["value"])
            for m in metrics)), flush=True)
    summaries = {}
    for m in metrics:
        name = m["name"]
        s = summaries[name] = summarize(
            [r[name]["value"] for r in runs["parent"]],
            [r[name]["value"] for r in runs["change"]], m["better"], m["bound"])
        print("%-13s parent %.4f [%.4f, %.4f]  change %.4f [%.4f, %.4f]  spread %.4f  "
              "%s in %d/%d  gap %.4f  gain: %s  bound %g: %s"
              % (name, s["parent"]["median"], s["parent"]["q1"], s["parent"]["q3"],
                 s["change"]["median"], s["change"]["q1"], s["change"]["q3"],
                 s["parent_spread"], m["better"], s["wins"], s["n"], s["gap"],
                 "yes" if s["gain"] else "no", m["bound"], s["verdict"]))
    print(json.dumps({"workload": args.workload, "summaries": summaries}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
