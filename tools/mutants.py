"""Seeded faults in the engine, each with the tests that must catch it.

    python3 tools/mutants.py

Each entry of ``CATALOGUE`` is one fault: a file under ``src/``, an exact
text in it, the text that replaces it, and the test files expected to fail
with it in place.  For each entry in turn the tool copies the checkout into
a temporary directory, makes that one replacement there, and runs

    python -B -m pytest -q -x -p no:cacheprovider <test files>

in the copy, one pytest process at a time; the checkout itself is never
written.  It prints each entry's name, "killed" (the tests failed) or
"survived" (they passed), and the seconds taken.  First it runs every
kill file once on an unmutated copy, since a kill means something only
where that passes.  It exits 1 when the unmutated copy fails, when a
mutant survives or pytest ends any other way, and, before it runs
anything, when an entry's old text does not occur exactly once in its file,
its mutated file does not parse (the import error alone would "kill" it,
which proves nothing) or a kill file is missing.  Stdlib only.

Mutation analysis measures a test suite by the seeded faults it kills
(DeMillo, Lipton and Sayward, "Hints on test data selection", Computer
11(4), 1978; Jia and Harman, IEEE Trans. Softw. Eng. 37(5), 2011).  A test
may be removed when the full run still kills every entry without it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a mutant that hangs its tests is reported, not waited for
TIMEOUT_S = 600
# what a pytest exit code (None: timed out) says of a mutant
OUTCOMES = {0: "survived", 1: "killed", None: "timed out"}


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout, under src/
    old: str
    new: str
    kills: tuple[str, ...]  # test files, relative to the checkout


FILTRATION = "src/gwgamma/filtration.py"
SERIES = "src/gwgamma/series.py"
LAMBDARING = "src/gwgamma/lambdaring.py"
SYMFUNC = "src/gwgamma/symfunc.py"
ABELIAN = "src/gwgamma/abelian.py"
MODELS = "src/gwgamma/models.py"
CLI = "src/gwgamma/cli.py"
MILNOR = "src/gwgamma/milnor.py"


def _tests(*names: str) -> tuple[str, ...]:
    return tuple("tests/test_%s.py" % n for n in names)


# kills: the files run for an entry, the reference that guards its path
# first; with -x the first failing test ends the run
CATALOGUE = (
    # the gamma filtration: piece recursion, products, levels, refusals
    Mutant("piece-lower-index", FILTRATION,
           "_times(m, spans, gs, pieces[k - i])", "_times(m, spans, gs, pieces[k - 1])",
           _tests("product_table_oracle", "per_weight_oracle", "filtration_oracle",
                  "filtration")),
    Mutant("piece-values-from-k-minus-1", FILTRATION,
           "if i >= k:\n                vecs += gs", "if i >= k - 1:\n                vecs += gs",
           _tests("product_table_oracle", "per_weight_oracle", "filtration_oracle",
                  "filtration")),
    Mutant("piece-k-minus-1-skipped-at-k-2", FILTRATION,
           "elif i < k - 1 or i == 1:", "elif i < k - 1:",
           _tests("product_table_oracle", "per_weight_oracle", "filtration_oracle",
                  "filtration")),
    Mutant("times-unreduced-spans", FILTRATION,
           "reduced = (m.group.reduce(c) for c in sub.columns)",
           "reduced = (c for c in sub.columns)",
           _tests("product_table_oracle", "per_weight_oracle")),
    Mutant("times-first-product-only", FILTRATION,
           "products[g] = list(dict.fromkeys(p for p in found if any(p)))",
           "products[g] = list(dict.fromkeys(p for p in found if any(p)))[:1]",
           _tests("product_table_oracle", "per_weight_oracle", "filtration_oracle")),
    Mutant("certified-cap-short", FILTRATION,
           "certified = kmax + max(max(values, default=0) - 1, 0)",
           "certified = kmax + max(max(values, default=0) - 2, 0)",
           _tests("product_table_oracle", "per_weight_oracle", "filtration_oracle",
                  "filtration")),
    Mutant("zero-gamma-values-kept", FILTRATION, "if i and any(g):", "if i:",
           _tests("filtration_oracle", "filtration", "column_paths")),
    Mutant("result-every-stored-piece", FILTRATION,
           "pieces=pieces[:kmax + 1],", "pieces=pieces,",
           _tests("filtration_memo", "filtration", "filtration_oracle")),
    Mutant("zero-stop-at-equal-level", FILTRATION,
           "new = below if below.is_zero else piece(k, pieces)",
           "new = below if below in pieces[:-1] else piece(k, pieces)",
           _tests("filtration_oracle", "filtration")),
    Mutant("equal-level-not-shared", FILTRATION,
           "new = below if new.columns == below.columns else new", "new = new",
           _tests("filtration_memo")),
    Mutant("grown-shorter-replaces-longer", FILTRATION,
           "if n > len(record[key][0]):", "if True:",
           _tests("filtration_memo")),
    Mutant("record-values-before-levels", FILTRATION,
           'record.setdefault("gamma", ((full_subgroup(m.group),), ()))\n'
           '        values = record["values"] = _gamma_values(m, kernel_basis(m.aug), budget)',
           'values = record["values"] = _gamma_values(m, kernel_basis(m.aug), budget)\n'
           '        record.setdefault("gamma", ((full_subgroup(m.group),), ()))',
           _tests("filtration_memo")),
    Mutant("record-quotient-before-levels", FILTRATION,
           'record.setdefault("witt", ((full_subgroup(qpres),), ()))\n'
           '        witt = record["witt_quotient"] = qpres, tuple(map(tuple, projection))',
           'witt = record["witt_quotient"] = qpres, tuple(map(tuple, projection))\n'
           '        record.setdefault("witt", ((full_subgroup(qpres),), ()))',
           _tests("filtration_memo")),
    Mutant("refusal-torsion-products-dropped", FILTRATION,
           '    "products respect torsion orders",\n', "",
           _tests("filtration_refusals")),
    Mutant("refusal-lambda-one-dropped", FILTRATION,
           '    "lambda^1 is the identity on basis",\n', "",
           _tests("filtration_refusals")),
    Mutant("witt-any-result-accepted", FILTRATION,
           "if f.model is not m or f != gamma_filtration(m, f.kmax):", "if f.model is not m:",
           _tests("filtration")),
    Mutant("witt-image-below-reused", FILTRATION, "return images[-1]", "return images[0]",
           _tests("column_paths", "filtration_memo", "filtration")),
    # series: the Kronecker product, the binomial table, substitutions, rows
    Mutant("kronecker-no-sign-bit", SERIES, "w = bound + 1", "w = bound",
           _tests("kronecker_oracle", "arith_oracle")),
    Mutant("kronecker-no-length-bits", SERIES,
           "+ (n + 1).bit_length() + m._constant_bits)", "+ m._constant_bits)",
           _tests("kronecker_oracle", "arith_oracle")),
    Mutant("pow-negative-top-short", SERIES,
           "top = min(e, n) if e >= 0 else n", "top = min(e, n) if e >= 0 else n - 1",
           _tests("pow_oracle", "arith_oracle", "series")),
    Mutant("pow-top-binomial-dropped", SERIES,
           "for k in range(1, top + 1):\n            c = c",
           "for k in range(1, top):\n            c = c",
           _tests("pow_oracle", "arith_oracle", "series")),
    Mutant("pow-table-squares", SERIES,
           "powers.append(_product(m, n, powers[0], powers[-1]))",
           "powers.append(_product(m, n, powers[-1], powers[-1]))",
           _tests("pow_oracle", "arith_oracle")),
    Mutant("pow-zero-returns-self", SERIES, "if e == 1:", "if e in (0, 1):",
           _tests("pow_oracle", "series", "arith_oracle")),
    Mutant("substitute-body-short", SERIES,
           "body = col[1:_last_degree(col) + 1]", "body = col[1:_last_degree(col)]",
           _tests("arith_oracle", "projective_oracle", "models")),
    Mutant("substitute-wrong-sign", SERIES,
           "sign ** (k - i) * comb(k - 1, k - i)", "sign ** (k - i + 1) * comb(k - 1, k - i)",
           _tests("arith_oracle", "series", "models")),
    Mutant("series-rows-unreduced", SERIES,
           "rows = [m.group.reduce(r) for r in rows[:order + 1]]",
           "rows = [tuple(r) for r in rows[:order + 1]]",
           _tests("kronecker_oracle", "series", "arith_oracle")),
    Mutant("series-cut-short", SERIES,
           "rows = [m.group.reduce(r) for r in rows[:order + 1]]",
           "rows = [m.group.reduce(r) for r in rows[:order]]",
           _tests("arith_oracle", "kronecker_oracle", "series")),
    Mutant("series-pad-short", SERIES,
           "pad = [0] * (order + 1 - len(rows))", "pad = [0] * (order - len(rows))",
           _tests("arith_oracle", "kronecker_oracle", "series")),
    Mutant("reduced-keeps-torsion", SERIES, "col = [v % o for v in col]", "col = list(col)",
           _tests("arith_oracle", "kronecker_oracle", "sparse_oracle")),
    Mutant("series-pad-long", SERIES,
           "pad = [0] * (order + 1 - len(rows))", "pad = [0] * (order + 2 - len(rows))",
           _tests("arith_oracle", "kronecker_oracle", "series")),
    Mutant("substitute-row-reversed", SERIES,
           "for i in range(1, k + 1))\n        for k in range(1, order + 1)",
           "for i in range(k, 0, -1))\n        for k in range(1, order + 1)",
           _tests("arith_oracle", "projective_oracle", "series")),
    # the ring: structure constants, dot, the checks and their memo
    Mutant("products-one-sided", LAMBDARING,
           "rows[i][j] = rows[j][i] = entries[val]", "rows[i][j] = entries[val]",
           _tests("arith_oracle", "kronecker_oracle", "checker_oracle")),
    Mutant("dot-unreduced", LAMBDARING,
           "return self._zero if acc is None else self.group.reduce(acc)",
           "return self._zero if acc is None else tuple(acc)",
           _tests("arith_oracle", "checker_oracle", "filtration_refusals")),
    Mutant("unit-neutral-always", LAMBDARING,
           "return all(self.dot(unit, _entries(b.coeffs)) == b.coeffs"
           " for b in self.group.basis())", "return True",
           _tests("arith_oracle", "checker_oracle", "lambdaring")),
    Mutant("verdict-two-bracketings", LAMBDARING,
           "for p, q in ((i, j), (j, i)) if i < j < k else ((i, j),):",
           "for p, q in ((i, j),):",
           _tests("pow_oracle")),
    Mutant("associativity-from-j-plus-1", LAMBDARING,
           "for k in range(j, rank):", "for k in range(j + 1, rank):",
           _tests("checker_oracle")),
    Mutant("verdict-no-torsion-kill", LAMBDARING,
           "if any(o * c % orders[k] if orders[k] else c for k, c in rows[i][j]):",
           "if False:",
           _tests("arith_oracle", "pow_oracle", "filtration_refusals")),
    Mutant("augmentation-degree-one-only", LAMBDARING,
           "for k in range(1, trunc + 1):\n                want",
           "for k in range(1, 2):\n                want",
           _tests("checker_oracle", "lambdaring", "filtration_refusals")),
    Mutant("homomorphism-off-diagonal", LAMBDARING,
           "for j in range(i, rank):\n                got",
           "for j in range(i + 1, rank):\n                got",
           _tests("checker_oracle", "filtration_refusals", "intern_oracle")),
    Mutant("check-reports-last-case", LAMBDARING,
           "memo[name] = next(checks()[name], None)",
           "memo[name] = ([None] + list(checks()[name]))[-1]",
           _tests("checker_oracle", "intern_oracle", "filtration_refusals")),
    Mutant("lambda-rows-literal-zero-only", LAMBDARING,
           "while rows and not any(group.reduce(rows[-1])):",
           "while rows and not any(rows[-1]):",
           _tests("column_paths", "cli")),
    Mutant("check-memo-bypassed", LAMBDARING, "if name not in memo:", "if True:",
           _tests("cli")),
    Mutant("check-memo-shared-across-models", LAMBDARING,
           'memo, checks = _derived(m).setdefault("checks", {}),'
           " cache(lambda: dict(_checks(m)))",
           "memo, checks = _first_cases.__dict__.setdefault('shared', {}),"
           " cache(lambda: dict(_checks(m)))",
           _tests("intern_oracle", "checker_oracle", "filtration_refusals")),
    # the record of each content: its key
    Mutant("record-key-without-trunc", LAMBDARING,
           "m.aug, hyperbolic, m.trunc, columns", "m.aug, hyperbolic, columns",
           _tests("content_records")),
    Mutant("record-key-without-hyperbolic", LAMBDARING,
           "m.aug, hyperbolic, m.trunc, columns", "m.aug, m.trunc, columns",
           _tests("content_records")),
    Mutant("record-key-orders-for-group", LAMBDARING,
           "return m.group, m.unit.coeffs,", "return m.group.orders, m.unit.coeffs,",
           _tests("content_records")),
    Mutant("power-cache-by-basis-element", LAMBDARING,
           "power = cache(lambda i, c: series(i).pow(c))",
           "power = lambda i, c, memo={}: memo.setdefault(i, series(i).pow(c))",
           _tests("special_oracle", "checker_oracle", "column_paths")),
    Mutant("power-cache-by-exponent", LAMBDARING,
           "power = cache(lambda i, c: series(i).pow(c))",
           "power = lambda i, c, memo={}: memo.setdefault(c, series(i).pow(c))",
           _tests("special_oracle", "filtration_oracle", "column_paths")),
    Mutant("special-lambda-xy-wrong-series", LAMBDARING,
           "lam_xy = totals(m, bound)((x * elements[j]).value.coeffs).rows()",
           "lam_xy = totals(m, bound)((x * elements[i]).value.coeffs).rows()",
           _tests("special_oracle", "lambdaring")),
    Mutant("special-compositions-per-pair", LAMBDARING,
           "if i not in compositions:", "if True:",
           _tests("special_oracle", "evaluate_oracle", "fold_oracle")),
    Mutant("special-series-per-pair", LAMBDARING,
           "if s is None or len(s[0]) <= order:", "if True:",
           _tests("special_oracle")),
    Mutant("evaluate-sum-unreduced", LAMBDARING,
           "return m.group.reduce([total.get(k, 0) for k in range(m.group.rank)])",
           "return tuple([total.get(k, 0) for k in range(m.group.rank)])",
           _tests("evaluate_oracle", "fold_oracle", "special_oracle")),
    # the polynomial fold and the universal polynomials
    Mutant("fold-prefix-without-history", SYMFUNC,
           "self._chains = [(c, [idx[:s] for s in range(1, len(idx) + 1)]) for c, idx in indices]",
           "self._chains = [(c, [idx[:s] if s < 3 else (s, idx[s - 1])"
           " for s in range(1, len(idx) + 1)]) for c, idx in indices]",
           _tests("evaluate_oracle", "fold_oracle", "special_oracle")),
    Mutant("fold-unit-skip-keeps-value", SYMFUNC,
           "elif v == unit:\n                        prefixes[key] = term",
           "elif v == unit:\n                        prefixes[key] = v",
           _tests("evaluate_oracle", "fold_oracle", "lambdaring")),
    Mutant("newton-floor-division", SYMFUNC,
           "if r:\n                raise ArithmeticError",
           "if False:\n                raise ArithmeticError",
           _tests("symfunc")),
    # abelian groups: Smith and Hermite forms, spans, projections
    Mutant("snf-pivot-stop-two", ABELIAN,
           "if x == 1:  # no smaller nonzero entry exists", "if x <= 2:",
           _tests("snf_oracle")),
    Mutant("snf-unit-skip-two", ABELIAN, "if abs(p) != 1:", "if abs(p) > 2:",
           _tests("snf_oracle", "abelian")),
    Mutant("snf-sign-flip-a-only", ABELIAN,
           "a[t] = [-x for x in a[t]]", "a[t] = [-x for x in a[t][:n]] + a[t][n:]",
           _tests("snf_oracle")),
    Mutant("snf-divisibility-from-t-plus-2", ABELIAN,
           "bad = next((i for i in range(t + 1, m)", "bad = next((i for i in range(t + 2, m)",
           _tests("snf_oracle", "abelian")),
    Mutant("hnf-truncating-division", ABELIAN,
           "q = cols[c][r] // p  # floor => remainder in [0, p)", "q = int(cols[c][r] / p)",
           _tests("product_table_oracle", "per_weight_oracle", "filtration_oracle")),
    Mutant("span-without-relations", ABELIAN,
           "given = {v: v for v in [*vectors, *pres._relations]}",
           "given = {v: v for v in vectors}",
           _tests("abelian", "filtration", "product_table_oracle", "per_weight_oracle")),
    Mutant("project-unreduced", ABELIAN,
           "return target.reduce([sum(row[j] * c for j, c in entries) for row in projection])",
           "return tuple([sum(row[j] * c for j, c in entries) for row in projection])",
           _tests("sparse_oracle", "abelian", "column_paths")),
    Mutant("span-columns-not-shared", ABELIAN,
           "return Subgroup(pres, tuple(given.get(c, c) for c in cols), pivots)",
           "return Subgroup(pres, tuple(cols), pivots)",
           _tests("filtration_memo")),
    Mutant("quotient-drops-free", ABELIAN,
           "orders = diag + [0] * (rank - len(diag))", "orders = diag",
           _tests("abelian", "filtration", "projective_products")),
    Mutant("relative-no-row-split", ABELIAN,
           "rows = [r for r in range(big.ncols) if r not in split]",
           "rows = list(range(big.ncols))",
           _tests("abelian", "filtration")),
    # the builtin constructors and their intern
    Mutant("twisted-class-plus-a", MODELS,
           "out.append((a + 2 * one) * prev - prev2 + 2 * a)",
           "out.append((a + 2 * one) * prev - prev2 + a)",
           _tests("models", "special_oracle")),
    Mutant("projective-order-short", MODELS,
           "g = TruncSeries(ring, [unit, c, (-a_k).value.coeffs], 2 * top)",
           "g = TruncSeries(ring, [unit, c, (-a_k).value.coeffs], 2 * top - 1)",
           _tests("projective_oracle", "models")),
    Mutant("projective-power-sign", MODELS,
           "g = g * g_j.pow(-c[1 + j])", "g = g * g_j.pow(c[1 + j])",
           _tests("projective_oracle", "models")),
    Mutant("block-key-without-order", MODELS,
           "_block_gammas(top, order) if top", "_block_gammas(top, 2) if top",
           _tests("projective_oracle")),
    Mutant("block-l-zero-last", MODELS, "row[:1] + pad + row[1:]", "row + pad",
           _tests("projective_oracle", "models")),
    Mutant("surface-shift-a-a", MODELS,
           "[x] if i <= s else [x, [-v for v in x]]", "[x] if i <= s else [x, x]",
           _tests("models", "special_oracle")),
    Mutant("surface-shift-no-t2", MODELS,
           "[x] if i <= s else [x, [-v for v in x]]", "[x] if i <= s else [x]",
           _tests("models", "special_oracle")),
    Mutant("punctured-line-minus-eps", MODELS,
           "[None, None, [(0, 0, 1)]]", "[None, None, [(0, 0, -1)]]",
           _tests("models", "filtration")),
    Mutant("intern-ignores-trunc", MODELS,
           "key = tuple((v, type(v)) for v in bound.arguments.values())",
           "key = tuple((v, type(v)) for k, v in bound.arguments.items() if k != 'trunc')",
           _tests("models", "column_paths", "filtration")),
    Mutant("line-class-wrong-index", MODELS,
           "[unit, _basis_vec(group.rank, i)]", "[unit, _basis_vec(group.rank, i - 1)]",
           _tests("column_paths", "models", "checker_oracle")),
    Mutant("punctured-a5-short-gamma", MODELS,
           "[None, [(0, 1), (0, 1)]]", "[None, [(0, 1)]]",
           _tests("models", "acceptance")),
    # model files: the intern of texts and the writer
    Mutant("intern-unbounded", CLI, "if len(_MODELS) > 64:", "if False:",
           _tests("cli")),
    Mutant("intern-keyed-by-length", CLI,
           'key = hashlib.sha256(text.encode("utf-8")).digest()', "key = len(text)",
           _tests("intern_oracle", "cli")),
    Mutant("dump-skips-on-size", CLI, "if fh.read() == data:", "if True:",
           _tests("cli")),
    Mutant("dump-without-access-check", CLI,
           "\n                and os.access(path, os.R_OK | os.W_OK)):", "):",
           _tests("cli")),
    # the GF(2) series of the Milnor check
    Mutant("milnor-quotient-last-term", MILNOR,
           "for k in range(1, d + 1):\n            if den_parts[k]",
           "for k in range(1, d):\n            if den_parts[k]",
           _tests("milnor")),
    Mutant("f2-times-cut-at-maxdeg", MILNOR, "if sum(u) > maxdeg:", "if sum(u) >= maxdeg:",
           _tests("milnor")),
)


def problems(mutant: Mutant, root: str = ROOT) -> list[str]:
    """Why an entry cannot be applied as written: its file or a kill file
    missing, its old text not occurring exactly once, no change, or a
    mutated file that does not parse."""
    path = os.path.join(root, mutant.path)
    if not mutant.path.startswith("src/") or not os.path.isfile(path):
        return ["%s is not a file under src/" % mutant.path]
    out = []
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        out.append("old text occurs %d times in %s" % (found, mutant.path))
    else:
        try:
            ast.parse(text.replace(mutant.old, mutant.new, 1))
        except SyntaxError as exc:
            out.append("mutated %s does not parse: %s" % (mutant.path, exc.msg))
    if mutant.new == mutant.old:
        out.append("new text equals the old")
    if not mutant.kills:
        out.append("no kill files")
    out += ["%s is not a file" % f for f in mutant.kills
            if not os.path.isfile(os.path.join(root, f))]
    return out


def run(files: tuple[str, ...], mutant: Mutant | None = None, root: str = ROOT) -> int | None:
    """The pytest exit code of the test files in a copy of the checkout,
    with the mutant's one replacement made there; None on a time-out."""
    with tempfile.TemporaryDirectory(prefix="gwgamma-mutant-") as tmp:
        copy = os.path.join(tmp, "checkout")
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        if mutant is not None:
            path = os.path.join(copy, mutant.path)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(mutant.old, mutant.new, 1))
        env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
        command = [sys.executable, "-B", "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   *files]
        try:
            return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return None


def main() -> int:
    stale = [(m.name, p) for m in CATALOGUE for p in problems(m)]
    for name, problem in stale:
        print("%s: %s" % (name, problem))
    if stale:
        return 1
    # a kill means something only where the unmutated checkout passes
    start = time.perf_counter()
    files = tuple(sorted({f for m in CATALOGUE for f in m.kills}))
    code = run(files)
    print("unmutated: %d test files, pytest exit %s, %.1f s"
          % (len(files), code, time.perf_counter() - start), flush=True)
    if code != 0:
        return 1
    width = max(len(m.name) for m in CATALOGUE)
    failed = 0
    for m in CATALOGUE:
        began = time.perf_counter()
        code = run(m.kills, m)
        outcome = OUTCOMES.get(code, "pytest exit %s" % code)
        failed += outcome != "killed"
        print("%-*s  %-8s %6.1f s" % (width, m.name, outcome, time.perf_counter() - began),
              flush=True)
    print("%d of %d killed in %.1f s" % (len(CATALOGUE) - failed, len(CATALOGUE),
                                         time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
