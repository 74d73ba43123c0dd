"""gwgamma benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gwgamma is imported from its ``src``.
One process and one thread run the workload's jobs as a closed loop with a
single client: a job starts only when the previous one has finished.  Jobs
come in passes, each a job list drawn from the seed.  The number of passes
is fixed by the workload and ``--seconds`` alone (``PASS_SECONDS``), never by
how fast the machine happens to be, and every pass starts from a fresh
set-up: gwgamma re-imported, so its caches start cold.  Every job's output is
checked against ``bench/expected.json`` and, for group rings, against closed
forms, before any number is printed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each job of
the first pass traced and then untraced, and prints the per-layer metrics
and the tracing overhead (traced minus untraced time of the pass).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(BENCH, "expected.json")

import jobs as J  # noqa: E402
from layertrace import LAYER_METRICS, LAYERS, Tracer  # noqa: E402

# Nominal time of one pass (Python 3.11, 2-core shared VM).  It only fixes
# the pass count, max(1, floor(--seconds / PASS_SECONDS)), so that the count
# does not depend on the speed of the machine during the run.
PASS_SECONDS = {"projective-tower": 38.0, "filtration-sweep": 19.0, "model-files": 7.5}
WORKLOADS = tuple(PASS_SECONDS)
# set-ups per run, spread over the gaps before, between and after the passes
SETUP_ROUNDS = 12
TAIL_BEYOND = 10

# end-to-end metrics of the JSON line.  job_p50_s and job_tail_s are printed
# but left out: on projective-tower each is one or two of 24 job times that
# differ by orders of magnitude, and over ten seeds their quartile spread
# came within 0.03 of, or beyond, the largest bound allowed (0.25).
JSON_E2E_METRICS = ("wall_s", "peak_rss_mib", "setup_s")

# per-layer metrics of the JSON line.  The times of symfunc, milnor and cli
# are printed in the report but left out here: those layers run only in
# model-files, so elsewhere they would be times reading 0 on every run.
JSON_LAYER_METRICS = tuple(
    (name, unit) for name, unit in LAYER_METRICS
    if name.split(".")[0] not in ("symfunc", "milnor", "cli") or unit != "s"
)


def import_gwgamma():
    """Import gwgamma afresh from this checkout's src, never from elsewhere."""
    init = os.path.join(SRC, "gwgamma", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit("error: %s not found; run from the root of a gwgamma checkout" % init)
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "gwgamma" or n.startswith("gwgamma.")]:
        del sys.modules[name]
    gw = importlib.import_module("gwgamma")
    if os.path.dirname(os.path.abspath(gw.__file__)) != os.path.dirname(init):
        raise SystemExit("error: gwgamma imported from %s, not %s" % (gw.__file__, SRC))
    return gw, importlib.import_module("gwgamma.cli")


class Workload:
    """Everything a run needs once set-up is done."""

    def __init__(self, name: str, rng: random.Random, workdir: str):
        self.name = name
        self.workdir = workdir
        self.gw, self.cli = import_gwgamma()
        self.group_rings = {}
        if name == "filtration-sweep":
            for label in J.GROUP_RINGS:
                m = J.group_ring(self.gw, label)
                report = self.gw.validate_model(m)
                if not report.ok:
                    raise RuntimeError("Z[%s] fails validation: %s" % (label, report.lines()))
                self.group_rings[label] = m
        elif name == "model-files":
            os.makedirs(workdir, exist_ok=True)
            J.write_group_ring_files(self.gw, self.cli, workdir)
        with open(EXPECTED, encoding="utf-8") as fh:
            self.expected = json.load(fh)[name]
        if name == "projective-tower":
            self.jobs = J.tower_pass(rng)
        elif name == "filtration-sweep":
            self.jobs = J.sweep_pass(rng)
        else:
            self.jobs = J.files_pass(rng, workdir)

    def run_pass(self, jobs):
        """Run the jobs back to back; returns (pass seconds, [(job, s, out, err)])."""
        is_cli = self.name == "model-files"
        records = []
        t_pass = perf_counter()
        for job in jobs:
            t0 = perf_counter()
            try:
                out = J.run_cli_job(self.cli, job) if is_cli else \
                    J.run_api_job(self.gw, self.group_rings, job)
                err = None
            except Exception:  # a failing job is counted, the run goes on
                out, err = None, traceback.format_exc(limit=3)
            records.append((job, perf_counter() - t0, out, err))
        return perf_counter() - t_pass, records

    def run_traced_pass(self, jobs, tracer):
        """Run each job traced, then again untraced.

        Pairing at the job level keeps the drift of a shared machine out of
        the overhead.  Returns (traced s, untraced s, records of both).
        """
        traced = plain = 0.0
        records = []
        for i, job in enumerate(jobs):
            tracer.begin_job(i)
            tracer.install()
            try:
                seconds, recs = self.run_pass([job])
            finally:
                tracer.uninstall()
            traced += seconds
            records += recs
            seconds, recs = self.run_pass([job])
            plain += seconds
            records += recs
        return traced, plain, records

    def check(self, records, failures: list, oracle_counts: list) -> None:
        """Compare each outcome with the recorded one and the closed forms."""
        for job, _, out, err in records:
            if err is not None:
                failures.append("%s raised:\n%s" % (job.key, err))
                continue
            try:
                summary = J.cli_summary(job, *out) if self.name == "model-files" \
                    else J.api_summary(out)
                made, bad = J.oracle_failures(job, summary)
            except (ValueError, KeyError, OSError, TypeError) as exc:
                failures.append("%s: unreadable output: %r" % (job.key, exc))
                continue
            oracle_counts[0] += made
            oracle_counts[1] += bool(bad)
            want = self.expected.get(job.key)
            if want is None:
                failures.append("%s: no recorded output" % job.key)
            elif summary != want:
                failures.append("%s: output %s differs from recorded %s" % (job.key, summary, want))
            elif bad:
                failures.append("%s: %s" % (job.key, "; ".join(bad)))


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = os.path.join(BENCH, "_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def set_up(name: str, rng: random.Random, workdir: str, setups: list) -> Workload:
    gc.collect()  # leave the garbage of earlier rounds out of the timing
    t0 = perf_counter()
    wl = Workload(name, rng, workdir)
    setups.append(perf_counter() - t0)
    return wl


def measure(args, workdir: str) -> int:
    rng = random.Random(args.seed)
    setups: list[float] = []
    failures: list[str] = []
    oracles = [0, 0]
    times: list[float] = []
    passes: list[float] = []
    if args.trace:
        wl = set_up(args.workload, rng, workdir, setups)
        tracer = Tracer(wl.gw)
        traced, plain, records = wl.run_traced_pass(wl.jobs, tracer)
        wl.check(records, failures, oracles)
        attempted = len(records)
        layer = tracer.metrics()
        layer["trace.overhead_s"] = traced - plain
        spans = os.path.join(BENCH, "traces", "%s-seed%d.tsv.gz" % (args.workload, args.seed))
        tracer.write_spans(spans)
    else:
        n_passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
        per_gap = -(-SETUP_ROUNDS // (n_passes + 1))
        for _ in range(n_passes):
            for _ in range(per_gap):
                wl = set_up(args.workload, rng, workdir, setups)
            gc.collect()
            seconds, records = wl.run_pass(wl.jobs)
            passes.append(seconds)
            times.extend(r[1] for r in records)
            wl.check(records, failures, oracles)
        for _ in range(per_gap):
            set_up(args.workload, rng, workdir, setups)
        attempted = len(times)

    print("gwgamma benchmark  workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("sha=%s python=%s nproc=%d  closed loop, 1 client, 1 thread"
          % (git_sha(), platform.python_version(), os.cpu_count() or 0))
    print("error_ratio         %.6f  (%d of %d jobs failed)"
          % (len(failures) / attempted, len(failures), attempted))
    print("closed-form checks  %d made, %d failed" % tuple(oracles))
    for msg in failures[:5]:
        print("FAIL " + msg, file=sys.stderr)

    if args.trace:
        print("per-layer metrics of one traced pass of %d jobs (first of the seed);"
              % (attempted // 2))
        print("GroupElement add and reduce count toward the caller's self time "
              "(mostly lambdaring)")
        for name, unit in LAYER_METRICS:
            print("  %-36s %14.6g %s" % (name, layer[name], unit))
        for kind in ("self_s", "incl_s"):
            print("  %s by layer: " % kind + ", ".join(
                "%s %.3f" % (lay, layer["%s.%s" % (lay, kind)]) for lay in LAYERS))
        print("  spans written to %s" % os.path.relpath(spans, ROOT))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in JSON_LAYER_METRICS}
    else:
        times.sort()
        n = len(times)
        k = max(n - TAIL_BEYOND - 1, 0)  # TAIL_BEYOND jobs lie beyond times[k]
        values = {
            "setup_s": (statistics.median(setups), "s",
                        "median of %d set-ups" % len(setups)),
            "wall_s": (statistics.median(passes), "s",
                       "median of %d passes of %d jobs" % (len(passes), n // len(passes))),
            "job_p50_s": (statistics.median(times), "s", "n=%d jobs" % n),
            "job_tail_s": (times[k], "s", "p%.1f, n=%d jobs, %d beyond"
                           % (100.0 * (k + 1) / n, n, n - k - 1)),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "MiB", "n=1 process"),
        }
        for name, (value, unit, note) in values.items():
            print("%-19s %.6f %s  (%s)" % (name, value, unit, note))
        metrics = {name: {"value": values[name][0], "unit": values[name][1]}
                   for name in JSON_E2E_METRICS}

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
