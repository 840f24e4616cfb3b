"""Run one benchmark job with spans around mahlerfold's public functions.

    python perfbench/trace_shim.py SPANS_OUT JOB_ID -m mahlerfold.cli ARGS...
    python perfbench/trace_shim.py SPANS_OUT JOB_ID SCRIPT ARGS...

The wrappers are installed from outside the package: methods are replaced on
their class, and a module-level function is replaced in every mahlerfold
module that bound it by name.  Spans (name, start, end, parent, job id) and
counters stay in memory and are written to SPANS_OUT as JSON when the job
ends.  Counter bookkeeping runs inside a ``trace.count`` span, so it is not
charged to the self time of the layer being counted.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import runpy
import sys
import time
import weakref
from fractions import Fraction


class Tracer:
    """Spans and counters of one job, kept in memory until ``dump``."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack: list[int] = []
        self.counters: collections.Counter = collections.Counter()
        self.engine_top: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.counting = False

    def wrap(self, name: str, fn, count=None):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self.counting:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else -1
            rec = [name, clock(), 0, parent]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self.stack.pop()
            if result is NotImplemented:
                rec[0] = "trace.declined"  # Python retries with the reflected method
            elif count is not None:
                crec = ["trace.count", clock(), 0, parent]
                self.counting = True
                try:
                    count(self, args, kwargs, result)
                finally:
                    self.counting = False
                    crec[2] = clock()
                    self.spans.append(crec)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        spans = [{"name": n, "start": s, "end": e, "parent": p, "job": self.job} for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counters": dict(self.counters)}, fh)


# --- counters --------------------------------------------------------------


def _bits(coeffs) -> int:
    best = 0
    for c in coeffs:
        if type(c) is int:
            best = max(best, c.bit_length())
        elif isinstance(c, Fraction):
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _count_poly_mul(tr, args, kwargs, result):
    a, b = args
    if type(b) is not type(a):
        return  # a scalar multiple
    ca, cb = a.coeffs, b.coeffs
    tr.counters["poly.mul.coeffs_in"] += len(ca) + len(cb)
    all_int = set(map(type, ca)) <= {int} and set(map(type, cb)) <= {int}
    if all_int:
        bits = max(max(map(int.bit_length, ca), default=0), max(map(int.bit_length, cb), default=0))
    else:
        bits = max(_bits(ca), _bits(cb))
    tr.counters["poly.mul.max_coeff_bits"] = max(tr.counters["poly.mul.max_coeff_bits"], bits)
    if all_int and min(len(ca), len(cb)) > 8:
        tr.counters["poly.mul.big_int_calls"] += 1


def _count_format(tr, args, kwargs, result):
    tr.counters["poly.format.chars"] += len(result)


def _count_engine(tr, args, kwargs, result):
    engine, n = args[0], (args[1] if len(args) > 1 else kwargs["n"])
    top = tr.engine_top.get(engine, len(engine.spec.bases) - 1)
    if n > top:
        tr.counters["folding.engine.levels"] += n - top
        tr.engine_top[engine] = n


def _count_iterate(tr, args, kwargs, result):
    tr.counters["folding.iterate.letters"] += len(result)


def _count_series_mul(tr, args, kwargs, result):
    a, b = args
    tr.counters["series.mul.coeffs_in"] += len(a.coeffs) + len(getattr(b, "coeffs", (b,)))


def _count_solve(tr, args, kwargs, result):
    coeffs = result.coeffs
    tr.counters["series.solve.fraction_coeffs"] += len(coeffs) - list(map(type, coeffs)).count(int)


def _count_probe(tr, args, kwargs, result):
    from mahlerfold.hadamard import hadamard_product
    from mahlerfold.series import TruncatedSeries

    f, g, k, order, d_max, deg_max = args
    tried = result.found.depth + 1 if result.found is not None else d_max + 1
    tr.counters["hadamard.probe.depths_tried"] += tried
    tr.counters["hadamard.probe.found"] += result.found is not None
    # the elimination runs on the nonzero rows of the annihilation system
    h = hadamard_product(f, TruncatedSeries.from_rational(g, f.order)).coeffs[: order + 1]
    nonzero = [False] * (order + 1)
    for d in range(tried):
        kd = k**d
        for n in range(order + 1):
            if not nonzero[n]:
                nonzero[n] = any(
                    h[(n - j) // kd] for j in range(min(deg_max, n) + 1) if (n - j) % kd == 0
                )
        tr.counters["hadamard.probe.cells"] += sum(nonzero) * (d + 1) * (deg_max + 1)


def _count_crossing(tr, args, kwargs, result):
    path = args[0]
    tr.counters["curve.crossing.edges_scanned"] += path.edge_count if result is None else result + 1


def _count_path(tr, args, kwargs, result):
    tr.counters["curve.path.edges"] += result.edge_count


def _count_svg(tr, args, kwargs, result):
    tr.counters["curve.svg.bytes"] += len(result.encode())


# (module, attribute path, span name, counter)
TARGETS = [
    ("mahlerfold.poly", "Polynomial.__mul__", "poly.mul", _count_poly_mul),
    ("mahlerfold.poly", "Polynomial.__rmul__", "poly.mul", _count_poly_mul),
    ("mahlerfold.poly", "Polynomial.__divmod__", "poly.divmod", None),
    ("mahlerfold.poly", "format_poly", "poly.format", _count_format),
    ("mahlerfold.contfrac", "ContinuantMatrix.mul", "contfrac.matmul", None),
    ("mahlerfold.folding", "FoldEngine.matrix", "folding.engine", _count_engine),
    ("mahlerfold.folding", "sign_generating_functions", "folding.gf", None),
    ("mahlerfold.folding", "iterate_fold", "folding.iterate", _count_iterate),
    ("mahlerfold.series", "TruncatedSeries.__mul__", "series.mul", _count_series_mul),
    ("mahlerfold.series", "TruncatedSeries.__rmul__", "series.mul", _count_series_mul),
    ("mahlerfold.series", "TruncatedSeries.__truediv__", "series.div", None),
    ("mahlerfold.series", "TruncatedSeries.substitute_power", "series.subst", None),
    ("mahlerfold.series", "expand_named", "series.expand", None),
    ("mahlerfold.series", "truncated_partial", "series.partial", None),
    ("mahlerfold.series", "solve_mahler", "series.solve", _count_solve),
    ("mahlerfold.series", "MahlerEquation.residual", "series.residual", None),
    ("mahlerfold.hadamard", "hadamard_product", "hadamard.product", None),
    ("mahlerfold.hadamard", "hadamard_mahler_probe", "hadamard.probe", _count_probe),
    ("mahlerfold.curve", "path_from_signs", "curve.path", _count_path),
    ("mahlerfold.curve", "self_crossing", "curve.crossing", _count_crossing),
    ("mahlerfold.curve", "export_svg", "curve.svg", _count_svg),
    ("mahlerfold.cli", "main", "cli.main", None),
]


def install(tr: Tracer) -> None:
    """Replace every target with its traced wrapper."""
    import importlib

    import mahlerfold.cli  # noqa: F401  (loads every module that binds a target)

    packages = [m for n, m in sys.modules.items() if n == "mahlerfold" or n.startswith("mahlerfold.")]
    for module_name, path, span, count in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, attr, tr.wrap(span, cls.__dict__[attr], count))
            continue
        original = getattr(module, path)
        wrapped = tr.wrap(span, original, count)
        for mod in packages:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    from mahlerfold.identities import REGISTRY

    for key, ident in REGISTRY.items():
        count = _count_series_identity if ident.kind == "series" else None
        REGISTRY[key] = dataclasses.replace(ident, run=tr.wrap("identities.run", ident.run, count))


def _count_series_identity(tr, args, kwargs, report):
    tr.counters["identities.checked_coeffs"] += report.checked + 1


def main(argv: list[str]) -> int:
    spans_out, job, target = argv[0], argv[1], argv[2:]
    tr = Tracer(job)
    install(tr)
    try:
        if target[:2] == ["-m", "mahlerfold.cli"]:
            import mahlerfold.cli

            sys.argv = ["mahlerfold"] + target[2:]
            return mahlerfold.cli.main(target[2:])
        sys.argv = target
        runpy.run_path(target[0], run_name="__main__")
        return 0
    finally:
        sys.stdout.flush()
        tr.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
