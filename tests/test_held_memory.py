"""``tools/held_memory.py`` on a stand-in checkout whose pass holds a known
amount, and once on this checkout's filtration-sweep."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_MEMORY = os.path.join(ROOT, "tools", "held_memory.py")

# each job keeps 64 KiB and drops 1 MiB
STAND_IN_RUN = '''HELD = []


class Workload:
    def __init__(self, name, rng, workdir):
        self.jobs = [rng.random() for _ in range(3)]

    def run_pass(self, jobs):
        records = []
        for job in jobs:
            HELD.append(bytearray(64 * 1024))
            bytearray(1024 * 1024)
            records.append((job, 0.0, None, None))
        return 0.0, records
'''


def held_memory(*args):
    proc = subprocess.run(
        [sys.executable, HELD_MEMORY, *args], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_counts_what_the_pass_keeps_and_not_what_it_drops(tmp_path):
    os.makedirs(tmp_path / "bench")
    (tmp_path / "bench" / "run.py").write_text(STAND_IN_RUN)
    out, summary = held_memory(str(tmp_path), "--workload", "any", "--top", "1")
    assert summary["failed"] == 0
    assert 3 * 64 <= summary["held_kib"] < 3 * 64 + 64
    keep = STAND_IN_RUN.splitlines().index("            HELD.append(bytearray(64 * 1024))")
    assert summary["top"][0]["line"] == "%s:%d" % (os.path.join("bench", "run.py"), keep + 1)
    assert "of 3 jobs (0 raised)" in out
    assert sorted(os.listdir(tmp_path / "bench")) == ["run.py"]


def test_a_sweep_pass_holds_its_memos():
    before = sorted(os.listdir(os.path.join(ROOT, "bench")))
    _, summary = held_memory("--seed", "1", "--top", "3")
    assert summary["workload"] == "filtration-sweep" and summary["failed"] == 0
    assert summary["held_kib"] > 0 and len(summary["top"]) == 3
    assert all(t["line"].startswith(("src", "bench")) for t in summary["top"])
    assert sorted(os.listdir(os.path.join(ROOT, "bench"))) == before
