"""Steadiness check: two independent sets of benchmark runs of the same code.

    python3 bench/steady.py [--out FILE]

Runs ``BENCHMARK.json``'s command once per (set, run, workload) for every
workload it lists, ``RUNS`` runs per set, each run with its own seed, one
after another.  For every end-to-end metric and
workload it prints each set's median and quartiles, the quartile spread as
a share of the median, and whether the set medians agree within the
metric's bound.  A spread above a third of the bound, or medians further
apart than the bound, marks the metric unsteady.  ``--out`` also makes one
traced run per workload (seed 1) and writes every figure, with the git SHA,
Python version and nproc, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETS = 2
RUNS = 10


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s: incorrect output:\n%s" % (" ".join(cmd), proc.stderr))
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    values = {(s, w, m["name"]): [] for s in range(SETS)
              for w in workloads for m in metrics}
    for s in range(SETS):
        for i in range(RUNS):
            seed = 1000 * (s + 1) + i
            for w in workloads:
                result = run_once(spec, w, seed)
                for m in metrics:
                    values[(s, w, m["name"])].append(result["metrics"][m["name"]]["value"])
                print("set %d run %d %-17s %s" % (s + 1, i + 1, w, " ".join(
                    "%s=%.4g" % (m["name"], values[(s, w, m["name"])][-1]) for m in metrics)),
                    flush=True)

    rows = []
    steady = True
    print("\n%-17s %-13s %5s  %s  %s" % ("workload", "metric", "bound",
          "  ".join("set%d median [q1, q3] spread" % (s + 1) for s in range(SETS)),
          "agree"))
    for w in workloads:
        for m in metrics:
            sets = [summarize(values[(s, w, m["name"])]) for s in range(SETS)]
            base = sets[0]["median"]
            drift = max(abs(x["median"] - base) / base for x in sets)
            agree = drift <= m["bound"]
            ok = agree and all(x["spread"] <= m["bound"] / 3 for x in sets)
            steady &= ok
            rows.append({"workload": w, "metric": m["name"], "unit": m["unit"],
                         "bound": m["bound"], "sets": sets, "median_drift": drift,
                         "agree": agree, "steady": ok})
            print("%-17s %-13s %5.2f  %s  %s%s" % (
                w, m["name"], m["bound"], "  ".join(
                    "%.4g [%.4g, %.4g] %.3f" % (x["median"], x["q1"], x["q3"], x["spread"])
                    for x in sets),
                "yes" if agree else "NO", "" if ok else "  UNSTEADY"))

    if args.out:
        sys.path.insert(0, BENCH)
        from run import git_sha

        per_layer = {w: {k: v["value"] for k, v in run_once(spec, w, 1, trace=1)["metrics"].items()}
                     for w in workloads}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "sha": git_sha(),
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "run_seconds": spec["run_seconds"],
                "runs_per_set": RUNS,
                "end_to_end": rows,
                "per_layer_seed1": per_layer,
            }, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
