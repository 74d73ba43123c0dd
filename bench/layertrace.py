"""Per-layer tracing of gwgamma from outside the package.

``Tracer.install`` wraps, at run time, every public module-level function
of each layer module and a fixed list of public methods, and rebinds every
reference another gwgamma module holds to a wrapped function (names imported
with ``from .x import f`` and values of module-level dicts such as
``models.BUILTINS``).  ``uninstall`` restores the originals; the wrappers
are made once, so tracing can be switched on and off between jobs.

Each wrapped call records a span (name, start, end, parent span, job id) in
flat arrays; call counts and times are derived from the spans when the run
ends.  A layer's self time is its spans' time minus their child spans; its
inclusive time is the time of its outermost spans, those with no span of the
same layer above them, children of other layers included.  Counters that need arguments or results (HNF cells, repeated
operand pairs, distinct product values) are taken at the same boundaries.

Limits: ``GroupElement`` and ``GroupPresentation`` methods are not wrapped,
because they run millions of times per job and wrapping them would distort
the trace.  Their work, and that of ``RingElement`` addition, counts toward
the self time of the calling layer, mostly ``lambdaring`` (through
``RingElement.__mul__``) and ``series``.
"""

from __future__ import annotations

import functools
import gzip
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("abelian", "symfunc", "series", "lambdaring", "filtration", "models", "milnor", "cli")

# public methods traced besides the module-level functions
METHODS = {
    "abelian": {"Subgroup": ("contains", "__le__")},
    "symfunc": {"MultiPoly": ("evaluate",)},
    "series": {"TruncSeries": ("__mul__", "inverse", "pow",
                               "substitute_geometric", "substitute_alternating")},
    "lambdaring": {"RingElement": ("__mul__", "__pow__"),
                   "RingModel": ("basis_lambda_series",)},
    "milnor": {"F2Poly": ("__mul__", "__pow__", "inverse", "substitute")},
}

SERIES_COUNTERS = {
    "series.TruncSeries.__mul__": "series.products",
    "series.TruncSeries.inverse": "series.inverses",
    "series.TruncSeries.pow": "series.pows",
    "series.TruncSeries.substitute_geometric": "series.substitutions",
    "series.TruncSeries.substitute_alternating": "series.substitutions",
}

# metrics of the traced run, in report order
LAYER_METRICS = (
    ("abelian.calls", "count"), ("abelian.self_s", "s"), ("abelian.incl_s", "s"),
    ("abelian.hnf_calls", "count"), ("abelian.hnf_cells", "count"),
    ("abelian.snf_calls", "count"), ("abelian.snf_cells", "count"),
    ("abelian.contains_calls", "count"),
    ("symfunc.calls", "count"), ("symfunc.self_s", "s"), ("symfunc.incl_s", "s"),
    ("symfunc.evaluations", "count"),
    ("series.calls", "count"), ("series.self_s", "s"), ("series.incl_s", "s"),
    ("series.products", "count"), ("series.inverses", "count"),
    ("series.pows", "count"), ("series.substitutions", "count"),
    ("lambdaring.calls", "count"), ("lambdaring.self_s", "s"), ("lambdaring.incl_s", "s"),
    ("lambdaring.ring_products", "count"),
    ("lambdaring.repeat_product_share", "ratio"),
    ("filtration.calls", "count"), ("filtration.self_s", "s"), ("filtration.incl_s", "s"),
    ("filtration.distinct_product_share", "ratio"),
    ("models.calls", "count"), ("models.self_s", "s"), ("models.incl_s", "s"), ("models.builds", "count"),
    ("milnor.calls", "count"), ("milnor.self_s", "s"), ("milnor.incl_s", "s"), ("milnor.f2_products", "count"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.incl_s", "s"), ("cli.commands", "count"),
    ("cli.bytes_written", "bytes"), ("cli.bytes_read", "bytes"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = {layer: sys.modules["%s.%s" % (package.__name__, layer)]
                        for layer in LAYERS}
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.name = array("l")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()
        self._pairs: set = set()
        self._filtration_depth = 0
        self._filtration_values: set = set()
        self._patches = self._bindings()

    # -------------------------------------------------------------- wiring

    def _bindings(self) -> list:
        """(owner, attribute or key, original, wrapper, is dict item) to patch."""
        ring_element = self.modules["lambdaring"].RingElement
        out = []
        wrapped = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap("%s.%s" % (layer, attr), obj, ring_element))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = "%s.%s.%s" % (layer, cls_name, meth)
                    orig = cls.__dict__[meth]
                    out.append((cls, meth, orig, self._wrap(name, orig, ring_element), False))
        prefix = self.package.__name__ + "."
        mods = [self.package] + [m for n, m in sys.modules.items() if n.startswith(prefix)]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    out.append((mod, attr, obj, hit[1], False))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            out.append((obj, key, value, hit[1], True))
        return out

    def install(self) -> None:
        for owner, attr, _, wrapper, is_item in self._patches:
            if is_item:
                owner[attr] = wrapper
            else:
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._pairs.clear()

    # --------------------------------------------------------------- spans

    def _wrap(self, name: str, fn, ring_element):
        nid = len(self.names)
        self.names.append(name)
        before, after, leave = self._hooks(name, ring_element)
        start, end, parent, job, names, stack = (
            self.start, self.end, self.parent, self.job, self.name, self.stack)

        def traced(*args, **kwargs):
            i = len(start)
            start.append(perf_counter())
            end.append(0.0)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            names.append(nid)
            stack.append(i)
            try:
                if before is not None:
                    args = before(args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                if leave is not None:
                    leave()
                stack.pop()
                end[i] = perf_counter()

        return functools.update_wrapper(traced, fn)

    def _hooks(self, name: str, ring_element):
        """(before, after, leave) for a span: `before` may replace the
        arguments, `after` sees the result, `leave` runs even on error."""
        counts = self.counts
        if name == "abelian.hnf_columns":
            def before(args):
                vectors = list(args[0])
                counts["abelian.hnf_cells"] += len(vectors) * args[1]
                return (vectors,) + args[1:]
            return before, None, None
        if name == "abelian.smith_normal_form":
            def before(args):
                rows = args[0]
                counts["abelian.snf_cells"] += len(rows) * (len(rows[0]) if rows else 0)
                return args
            return before, None, None
        if name == "lambdaring.RingElement.__mul__":
            pairs, values = self._pairs, self._filtration_values

            def before(args):
                a, b = args
                if isinstance(b, ring_element):
                    counts["lambdaring.ring_products"] += 1
                    x, y = a.value.coeffs, b.value.coeffs
                    key = (x, y) if x <= y else (y, x)
                    if key in pairs:
                        counts["repeat_products"] += 1
                    else:
                        pairs.add(key)
                return args

            def after(args, result):
                if self._filtration_depth and isinstance(args[1], ring_element):
                    counts["filtration_products"] += 1
                    values.add(result.value.coeffs)
            return before, after, None
        if name == "filtration.gamma_filtration":
            def before(args):
                if not self._filtration_depth:
                    self._filtration_values.clear()
                self._filtration_depth += 1
                return args
            return before, None, self._leave_filtration
        if name == "cli.dump_model":
            def after(args, result):
                counts["cli.bytes_written"] += os.path.getsize(args[1])
            return None, after, None
        if name == "cli.parse_model":
            def before(args):
                if os.path.isfile(args[0]):
                    counts["cli.bytes_read"] += os.path.getsize(args[0])
                return args
            return before, None, None
        return None, None, None

    def _leave_filtration(self) -> None:
        self._filtration_depth -= 1
        if not self._filtration_depth:
            self.counts["filtration_distinct"] += len(self._filtration_values)

    # ------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the recorded spans and counters."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [nm.split(".", 1)[0] for nm in self.names]
        bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
        # above[i]: bit mask of the layers of span i's ancestors
        above = array("l", [0]) * n
        calls: Counter = Counter()
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        by_name: Counter = Counter()
        builds = 0
        for i in range(n):
            nid = self.name[i]
            layer = layer_of[nid]
            calls[layer] += 1
            by_name[nid] += 1
            self_s[layer] += end[i] - start[i] - child[i]
            p = parent[i]
            if p >= 0:
                above[i] = above[p] | bit[layer_of[self.name[p]]]
            if not above[i] & bit[layer]:
                incl_s[layer] += end[i] - start[i]
            if (layer == "models" and self.names[nid].startswith("models.gw_")
                    and (p < 0 or layer_of[self.name[p]] != "models")):
                builds += 1
        named = {self.names[nid]: c for nid, c in by_name.items()}
        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out["%s.calls" % layer] = calls[layer]
            out["%s.self_s" % layer] = self_s[layer]
            out["%s.incl_s" % layer] = incl_s[layer]
        for span, metric in SERIES_COUNTERS.items():
            out[metric] = out.get(metric, 0) + named.get(span, 0)
        products = c["lambdaring.ring_products"]
        out.update({
            "abelian.hnf_calls": named.get("abelian.hnf_columns", 0),
            "abelian.hnf_cells": c["abelian.hnf_cells"],
            "abelian.snf_calls": named.get("abelian.smith_normal_form", 0),
            "abelian.snf_cells": c["abelian.snf_cells"],
            "abelian.contains_calls": named.get("abelian.Subgroup.contains", 0),
            "symfunc.evaluations": named.get("symfunc.MultiPoly.evaluate", 0),
            "lambdaring.ring_products": products,
            "lambdaring.repeat_product_share": c["repeat_products"] / products if products else 0.0,
            "filtration.distinct_product_share": (
                c["filtration_distinct"] / c["filtration_products"]
                if c["filtration_products"] else 0.0),
            "models.builds": builds,
            "milnor.f2_products": named.get("milnor.F2Poly.__mul__", 0),
            "cli.commands": named.get("cli.run", 0),
            "cli.bytes_written": c["cli.bytes_written"],
            "cli.bytes_read": c["cli.bytes_read"],
            "trace.spans": n,
        })
        return out

    def write_spans(self, path: str) -> None:
        """Spans as tab-separated (name, start, end, parent, job) rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.name[i]], self.start[i] - t0,
                    self.end[i] - t0, self.parent[i], self.job[i]))
