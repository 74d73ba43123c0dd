"""Record the expected output of every job in the benchmark's job families.

    python3 bench/record.py

Writes ``bench/expected.json``, which ``bench/run.py`` checks every job
against.  Record only at a commit whose outputs are trusted: the group-ring
closed forms are checked here too, and recording stops if one fails.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import jobs as J
from run import BENCH, EXPECTED, import_gwgamma


def record_api(gw, family, group_rings) -> dict:
    out = {}
    for job in family:
        summary = J.api_summary(J.run_api_job(gw, group_rings, job))
        check(job, summary)
        out[job.key] = summary
        print(job.key, summary["gamma"]["exact"], flush=True)
    return out


def record_files(gw, cli, workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    J.write_group_ring_files(gw, cli, workdir)
    out = {}
    for d in J.FILE_WITT_DEGREES:
        for chain in J.file_chains(workdir, [d] * len(J.FILE_BUILTINS)):
            for job in chain:
                if job.key in out:
                    continue
                summary = J.cli_summary(job, *J.run_cli_job(cli, job))
                check(job, summary)
                out[job.key] = summary
                print(job.key, summary["code"], flush=True)
    return out


def check(job, summary) -> None:
    _, bad = J.oracle_failures(job, summary)
    if bad:
        raise SystemExit("closed form fails for %s: %s" % (job.key, "; ".join(bad)))


def main() -> int:
    gw, cli = import_gwgamma()
    group_rings = {label: J.group_ring(gw, label) for label in J.GROUP_RINGS}
    workdir = os.path.join(BENCH, "_work", "record-%d" % os.getpid())
    try:
        expected = {
            "projective-tower": record_api(gw, J.tower_family(), group_rings),
            "filtration-sweep": record_api(gw, J.sweep_family(), group_rings),
            "model-files": record_files(gw, cli, workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print("wrote %s: %s" % (EXPECTED, {k: len(v) for k, v in expected.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
