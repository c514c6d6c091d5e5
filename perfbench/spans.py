"""Span recording around calls into the library's layers, from outside it.

`install` replaces public functions of `weitzenboeck` (module attributes,
plus `Polynomial.__mul__` and `WeitzenboeckDerivation.apply`) with
wrappers that record one span per call: name, start, end, parent span and
op id, plus counts computed from the call's arguments and return value.
Counting runs after the span's end and is recorded as bookkeeping, so it
is charged to no layer.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import time

# nearest enclosing span that decides which share of rref self time a call belongs to
RREF_PARENTS = {
    "kernel.nullspace": "nullspace",
    "kernel.span_dimension": "span",
    "kernel.express_in_generators": "express",
}


def _rref(args, kwargs, result):
    rows, ncols = args
    return {"cells": len(rows) * ncols, "rank": len(result[1])}


def _derivation_matrix(args, kwargs, result):
    matrix, cols, rows = result
    return {"cells": len(cols) * len(rows), "nonzeros": sum(1 for row in matrix for v in row if v)}


def _span_dimension(args, kwargs, result):
    return {"rows": sum(1 for p in args[0] if not p.is_zero), "rank": result}


def _mul(args, kwargs, result):
    return {"terms_out": len(result)} if hasattr(result, "ambient") else {}


# (module, attribute, span name, counter); the same function object is
# wrapped once and rebound wherever a module re-imported it
LAYERS = [
    ("cli", "main", "cli.main", None),
    ("poly", "parse", "poly.parse", lambda a, kw, r: {"terms": len(r)}),
    ("kernel", "rref", "kernel.rref", _rref),
    ("kernel", "nullspace", "kernel.nullspace", lambda a, kw, r: {"kernel_dim": len(r)}),
    ("kernel", "span_dimension", "kernel.span_dimension", _span_dimension),
    ("kernel", "generator_products", "kernel.generator_products", lambda a, kw, r: {"products": len(r)}),
    ("kernel", "graded_monomials", "kernel.graded_monomials", lambda a, kw, r: {"monomials": len(r)}),
    ("kernel", "derivation_matrix", "kernel.derivation_matrix", _derivation_matrix),
    ("kernel", "completeness_check", "kernel.completeness_check", None),
    ("kernel", "express_in_generators", "kernel.express_in_generators", None),
]
MODULES = ("cli", "kernel", "poly", "derivation")


class Tracer:
    def __init__(self):
        # [name, start, end, end of bookkeeping, parent index, op id, counts]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = rec[3] = clock()
                stack.pop()
                raise
            rec[2] = clock()
            stack.pop()
            if counter is not None:
                rec[6] = counter(args, kwargs, result)
            rec[3] = clock()
            return result

        return traced

    def install(self):
        """Patch the library in place, for the rest of the process."""
        import importlib

        modules = {name: importlib.import_module(f"weitzenboeck.{name}") for name in MODULES}
        for mod, attr, name, counter in LAYERS:
            original = getattr(modules[mod], attr, None)
            if original is None:  # layer renamed or removed: it reports no calls
                continue
            wrapper = self.wrap(name, original, counter)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
        poly = modules["poly"].Polynomial
        poly.__mul__ = self.wrap("poly.mul", poly.__mul__, _mul)
        deriv = modules["derivation"].WeitzenboeckDerivation
        deriv.apply = self.wrap("derivation.apply", deriv.apply, lambda a, kw, r: {"terms_in": len(a[1])})

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, _, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op, "counts": counts}) + "\n")


def aggregate(spans: list[list]) -> dict:
    """Per-layer calls, self and total time, and summed counts.

    A span's self time is its duration minus the full intervals of its
    child spans (their bookkeeping included); bookkeeping is totalled on
    its own, `root_s` is the time covered by top-level spans, and
    `negative_self_s` is the lowest self time if any is below zero (a
    nesting error), else 0.
    """
    cover = [0.0] * len(spans)
    for name, start, end, done, parent, op, counts in spans:
        if parent >= 0:
            cover[parent] += done - start
    layers: dict[str, dict] = {}
    rref_under = {share: {"self_s": 0.0, "rank": 0} for share in RREF_PARENTS.values()}
    bookkeeping = root = 0.0
    negative_self = 0.0
    for i, (name, start, end, done, parent, op, counts) in enumerate(spans):
        self_s = end - start - cover[i]
        negative_self = min(negative_self, self_s)
        layer = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        layer["calls"] += 1
        layer["self_s"] += self_s
        layer["total_s"] += end - start
        for key, value in (counts or {}).items():
            layer[key] = layer.get(key, 0) + value
        bookkeeping += done - end
        if parent < 0:
            root += done - start
        if name == "kernel.rref":
            while parent >= 0 and spans[parent][0] not in RREF_PARENTS:
                parent = spans[parent][4]
            if parent >= 0:
                share = rref_under[RREF_PARENTS[spans[parent][0]]]
                share["self_s"] += self_s
                share["rank"] += counts["rank"]
    return {"layers": layers, "rref_under": rref_under, "bookkeeping_s": bookkeeping, "root_s": root, "negative_self_s": negative_self}
