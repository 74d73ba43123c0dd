"""Job families, seeded passes and output checks of the gwgamma benchmark.

A job is one user request: build or load a model, compute its filtration,
or run one command-line invocation.  Each workload has a finite job family;
its expected outputs are recorded once by ``bench/record.py`` into
``bench/expected.json``.  A pass is one seeded job list drawn from the
family, run in a closed loop by a single client.

Nothing here imports gwgamma: the package module ``gw`` is passed in, so a
set-up round can re-import it and every job uses the fresh import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
from math import comb

# group rings Z[G] by name: the cyclic factors of G, and the largest kmax
# the filtration-sweep runs it at.  Monomial enumeration grows
# exponentially with kmax, so the caps keep every job below about 0.6 s.
GROUP_RINGS = {
    "C2": ((2,), 8),
    "C3": ((3,), 8),
    "C4": ((4,), 8),
    "C5": ((5,), 8),
    "C6": ((6,), 8),
    "C8": ((8,), 5),
    "C2^2": ((2, 2), 8),
    "C2xC4": ((2, 4), 5),
    "C3^2": ((3, 3), 4),
    "C2^3": ((2, 2, 2), 7),
    "C2^4": ((2, 2, 2, 2), 3),
}

# group rings written as model files; Z[C2^4] (rank 16) is left to the
# filtration-sweep so that no single command dominates a model-files pass
FILE_GROUP_RINGS = tuple(g for g in GROUP_RINGS if g != "C2^4")
FILE_GROUP_RING_DEGREE = 3
FILE_WITT_DEGREES = (2, 3, 4)
MILNOR_N = (1, 2, 3, 4)

# builtin models of the filtration-sweep: (constructor, keyword arguments,
# kmax values).  A surface's filtration costs the same at every kmax, so
# three values stand for the range.
SWEEP_BUILTINS = (
    [("gw_surface_cxp1", {"s": s}, (2, 5, 8)) for s in range(13)]
    + [("gw_punctured_line", {}, range(2, 9))]
    + [("gw_punctured_a5", {"f": f}, range(2, 9)) for f in range(2, 7)]
    + [("gw_point", {"base": "R"}, range(2, 9))]
)

# small builtins of model-files: (constructor, CLI flags)
FILE_BUILTINS = (
    [("gw_projective", ("--base", b, "--r", str(r))) for b in "CR" for r in range(1, 8)]
    + [("gw_surface_cxp1", ("--s", str(s))) for s in range(5)]
    + [("gw_punctured_line", ()), ("gw_point_C", ()), ("gw_point_R", ())]
    + [("gw_punctured_a5", ("--f", str(f))) for f in range(2, 7)]
)

# keys of `filtration --json` output that carry the mathematics; the rest
# (warnings, window, ...) may change without the answer changing
MATH_KEYS = ("exact", "basis", "orders", "pieces", "graded")
MODEL_FILE_KEYS = (
    "name", "basis", "orders", "unit", "augmentation", "mul", "lambda", "hyperbolic",
)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tower_trunc(r: int) -> int:
    """Smallest truncation at which P^r certifies exact at kmax 8."""
    return 16 if r <= 9 else 20


def model_key(name: str, kwargs: dict) -> str:
    args = ",".join("%s=%s" % kv for kv in sorted(kwargs.items()))
    return "%s(%s)" % (name, args)


def group_ring(gw, label: str):
    """Z[G] with basis the group elements, unit e, and lambda_t(g) = 1 + g t."""
    ns = GROUP_RINGS[label][0]
    elems = list(itertools.product(*[range(n) for n in ns]))
    index = {e: i for i, e in enumerate(elems)}
    rank = len(elems)

    def basis_vec(i):
        return tuple(int(j == i) for j in range(rank))

    mul = {}
    for i, a in enumerate(elems):
        for j in range(i, rank):
            ab = tuple((x + y) % n for x, y, n in zip(a, elems[j], ns))
            mul[(i, j)] = basis_vec(index[ab])
    names = tuple("e" if not any(e) else "g" + "".join(map(str, e)) for e in elems)
    return gw.RingModel(
        name="Z[%s]" % label,
        group=gw.GroupPresentation((0,) * rank, names),
        unit=basis_vec(0),
        mul=mul,
        aug=(1,) * rank,
        lambda_on_basis=[[basis_vec(i)] for i in range(rank)],
    )


def group_ring_oracle(label: str, kmax: int, graded) -> list[str]:
    """Mismatches against the closed forms for Z[C_n] and Z[C2^k].

    Z[C_n]: gr^k = Z/n for 1 <= k < kmax.  Z[C2^k]: gr^n = (Z/2)^m with
    m = sum_{j=1}^{min(n,k)} C(k, j), because I^n is spanned by the
    2^max(0, n-|S|) x_S for x_S = prod_{i in S} (g_i - 1).
    """
    ns = GROUP_RINGS[label][0]
    want = {}
    if len(ns) == 1:
        want.update({k: (ns[0],) for k in range(1, kmax)})
    if set(ns) == {2}:
        k = len(ns)
        for n in range(1, kmax):
            want[n] = (2,) * sum(comb(k, j) for j in range(1, min(n, k) + 1))
    return [
        "Z[%s] gr^%d = %s, closed form %s" % (label, n, tuple(graded[n]), g)
        for n, g in sorted(want.items())
        if tuple(graded[n]) != g
    ]


def filtration_summary(f) -> dict:
    return {
        "exact": f.exact,
        "graded": [list(g) for g in f.graded],
        "pieces": digest([[list(c) for c in p.columns] for p in f.pieces]),
    }


def api_summary(result) -> dict:
    f, w = result
    out = {"gamma": filtration_summary(f)}
    if w is not None:
        out["witt"] = {"exact": w.exact, "graded": [list(g) for g in w.graded]}
    return out


class Job:
    """One request: `key` names it in the expected outputs."""

    __slots__ = ("key", "kind", "spec")

    def __init__(self, key: str, kind: str, spec):
        self.key = key
        self.kind = kind
        self.spec = spec


# ---------------------------------------------------------------- families


def tower_family() -> list[Job]:
    jobs = []
    for base in "CR":
        for r in range(1, 13):
            kw = {"base": base, "r": r, "trunc": tower_trunc(r)}
            jobs.append(Job(model_key("gw_projective", kw), "builtin", ("gw_projective", kw, 8)))
    return jobs


def sweep_models() -> list[tuple[str, str, object, list[int]]]:
    """(model key, kind, spec, kmax range) for every filtration-sweep model."""
    out = []
    for label, (_, kcap) in GROUP_RINGS.items():
        out.append(("Z[%s]" % label, "group", label, list(range(2, kcap + 1))))
    for name, kw, ks in SWEEP_BUILTINS:
        out.append((model_key(name, kw), "builtin", (name, kw), list(ks)))
    return out


def sweep_job(mkey: str, kind: str, spec, kmax: int) -> Job:
    full = (spec[0], spec[1], kmax) if kind == "builtin" else (spec, kmax)
    return Job("%s/kmax=%d" % (mkey, kmax), kind, full)


def sweep_family() -> list[Job]:
    return [
        sweep_job(mkey, kind, spec, k)
        for mkey, kind, spec, ks in sweep_models()
        for k in ks
    ]


def file_chains(workdir: str, witt_degrees) -> list[list[Job]]:
    """Command chains of model-files; commands on a file follow its writer.

    `witt_degrees` gives each builtin's `--max-degree`; group-ring files use
    FILE_GROUP_RING_DEGREE and have no hyperbolic classes, so no `--witt`.
    """
    chains = []
    for (name, flags), d in zip(FILE_BUILTINS, witt_degrees):
        slug = name + "".join(flags).replace("--", "_")
        path = os.path.join(workdir, slug + ".json")
        key = "%s%s" % (name, " ".join(("",) + flags))
        chains.append([
            Job("builtin %s" % key, "builtin", (["builtin", name, *flags, "-o", path], path)),
            Job("validate %s" % key, "text", (["validate", path],)),
            Job("special %s" % key, "text", (["special", path, "--bound", "3"],)),
            Job("filtration --witt --max-degree %d %s" % (d, key), "json",
                (["filtration", path, "--json", "--witt", "--max-degree", str(d)], None)),
        ])
    for label in FILE_GROUP_RINGS:
        path = group_ring_path(workdir, label)
        d = FILE_GROUP_RING_DEGREE
        chains.append([
            Job("validate Z[%s]" % label, "text", (["validate", path],)),
            Job("special Z[%s]" % label, "text", (["special", path, "--bound", "3"],)),
            Job("filtration --max-degree %d Z[%s]" % (d, label), "json",
                (["filtration", path, "--json", "--max-degree", str(d)], label)),
        ])
    for n in MILNOR_N:
        chains.append([Job("milnor --n %d" % n, "text", (["milnor", "--n", str(n)],))])
    return chains


def group_ring_path(workdir: str, label: str) -> str:
    return os.path.join(workdir, "Z_%s.json" % label.replace("^", "p"))


def write_group_ring_files(gw, cli, workdir: str) -> None:
    for label in FILE_GROUP_RINGS:
        m = group_ring(gw, label)
        report = gw.validate_model(m)
        if not report.ok:
            raise RuntimeError("Z[%s] fails validation: %s" % (label, report.lines()))
        cli.dump_model(m, group_ring_path(workdir, label))


# ------------------------------------------------------------ seeded passes


def tower_pass(rng) -> list[Job]:
    jobs = tower_family()
    rng.shuffle(jobs)
    return jobs


def sweep_pass(rng) -> list[Job]:
    """Every (model, kmax) pair of the family, in seeded order.

    Drawing a subset of pairs instead moved a pass's work, median job time
    and peak memory by up to a quarter from seed to seed.
    """
    jobs = sweep_family()
    rng.shuffle(jobs)
    return jobs


def files_pass(rng, workdir: str) -> list[Job]:
    """A random interleaving of the command chains, each kept in order."""
    degrees = [rng.choice(FILE_WITT_DEGREES) for _ in FILE_BUILTINS]
    chains = file_chains(workdir, degrees)
    order = [i for i, c in enumerate(chains) for _ in c]
    rng.shuffle(order)
    pos = [0] * len(chains)
    jobs = []
    for i in order:
        jobs.append(chains[i][pos[i]])
        pos[i] += 1
    return jobs


# -------------------------------------------------------------- execution


def run_api_job(gw, group_rings: dict, job: Job):
    """Run one filtration job; returns (gamma result, Witt result or None)."""
    if job.kind == "group":
        label, kmax = job.spec
        return gw.gamma_filtration(group_rings[label], kmax=kmax), None
    name, kw, kmax = job.spec
    m = getattr(gw, name)(**kw)
    f = gw.gamma_filtration(m, kmax=kmax)
    return f, gw.witt_filtration(m, f)


def run_cli_job(cli, job: Job) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(job.spec[0])
    return code, out.getvalue()


def cli_summary(job: Job, code: int, stdout: str) -> dict:
    """What of a command's outcome is compared with the recorded one."""
    out = {"code": code}
    if job.kind == "json":
        doc = json.loads(stdout)
        out["math"] = digest({k: doc[k] for k in MATH_KEYS})
        out["exact"] = doc["exact"]
        out["graded"] = doc["graded"]
    else:
        out["stdout"] = digest(stdout)
        out["lines"] = stdout.count("\n")
    if job.kind == "builtin":
        with open(job.spec[1], encoding="utf-8") as fh:
            doc = json.load(fh)
        out["file"] = digest({k: doc[k] for k in MODEL_FILE_KEYS if k in doc})
    return out


def oracle_failures(job: Job, summary: dict) -> tuple[int, list[str]]:
    """(closed-form checks made, mismatches) for one job's summary."""
    if job.kind == "group":
        label, kmax = job.spec
        graded = summary["gamma"]["graded"]
    elif job.kind == "json" and job.spec[1] is not None:
        label, kmax = job.spec[1], FILE_GROUP_RING_DEGREE
        graded = summary["graded"]
    else:
        return 0, []
    return 1, group_ring_oracle(label, kmax, graded)
