"""The memory one benchmark pass leaves held, traced in process.

    python3 tools/held_memory.py [ROOT] --workload filtration-sweep --seed 1 --top 10

ROOT is a gwgamma checkout, by default the one holding this file.  The tool
imports ``Workload`` from ROOT's ``bench/run.py``, sets the workload up at
the seed (gwgamma imported afresh from ROOT's ``src``), then starts
``tracemalloc`` and runs one pass, keeping its records as ``bench/run.py``
does while it checks them.  After a full garbage collection, every block
still traced was allocated by the pass and is still held: the record of
each live model's content (``lambdaring._derived``: its check cases and
filtration levels) with its key, the interned builtins and parsed file
models the pass's records keep alive, the blocks of
``models._block_gammas`` the pass built and the records themselves.  It prints their total in KiB and the source lines
that allocated the most; the last line is one JSON object with the total,
the block count and the lines.  Nothing is written under ``bench/``.
Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import random
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_run(root: str):
    """ROOT's ``bench/run.py`` as a module, with its ``bench`` directory on
    the path for the modules it imports, and no bytecode written there."""
    bench = os.path.join(root, "bench")
    if not os.path.isfile(os.path.join(bench, "run.py")):
        raise SystemExit("error: %s has no bench/run.py" % root)
    sys.path.insert(0, bench)
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(bench, "run.py"))
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def held_after_pass(root: str, workload: str, seed: int) -> tuple[tracemalloc.Snapshot, list]:
    """The snapshot of what one pass at the seed still holds after a full
    collection, and the pass's records, which hold part of it."""
    run = load_run(root)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under src/ either
    try:
        with tempfile.TemporaryDirectory() as workdir:
            wl = run.Workload(workload, random.Random(seed), workdir)
            gc.collect()
            tracemalloc.start()
            try:
                _, records = wl.run_pass(wl.jobs)
                gc.collect()
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
    finally:
        sys.dont_write_bytecode = saved
    return snapshot, records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("root", nargs="?", default=ROOT)
    ap.add_argument("--workload", default="filtration-sweep")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--top", type=int, default=10)
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    snapshot, records = held_after_pass(root, args.workload, args.seed)
    failed = sum(err is not None for *_, err in records)
    stats = snapshot.statistics("lineno")
    total = sum(s.size for s in stats)
    blocks = sum(s.count for s in stats)
    print("held after one %s pass, seed %d, of %d jobs (%d raised): %.1f KiB in %d blocks"
          % (args.workload, args.seed, len(records), failed, total / 1024, blocks))
    lines = []
    for s in stats[:args.top]:
        frame = s.traceback[0]
        where = "%s:%d" % (os.path.relpath(frame.filename, root), frame.lineno)
        lines.append({"line": where, "kib": s.size / 1024, "blocks": s.count})
        print("  %9.1f KiB %7d blocks  %s" % (s.size / 1024, s.count, where))
    print(json.dumps({"workload": args.workload, "seed": args.seed, "held_kib": total / 1024,
                      "blocks": blocks, "failed": failed, "top": lines}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
