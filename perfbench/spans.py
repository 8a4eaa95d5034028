"""Spans around hornforge's public functions, installed from outside.

`Tracer.install` replaces each named function by a wrapper in every
hornforge module that binds it (so `from .metrics import support` in
amie.py is caught as well as the call inside metrics.py) and `uninstall`
puts the originals back.  Each call records a span (name, start, end,
parent) and adds to its name's totals: calls, seconds and self seconds,
the latter being the span's duration less that of its direct child spans.
A counter function may add work counts taken from the call's arguments and
result.  The program is single-threaded, so one stack of open spans
suffices.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _spgemm_counts(counts, args, result):
    indptr_a, cols_a, indptr_b = args[0], args[1], args[2]
    counts["kernels.spgemm_bool.mults"] += int(np.diff(indptr_b)[cols_a].sum())
    counts["kernels.spgemm_bool.out_nnz"] += int(result[1].shape[0])


def _counter(name, measure):
    def count(counts, args, result):
        counts[name] += measure(result)

    return count


# (module, function, span name, counter or None, modules whose binding is
# replaced or None for every hornforge module)
SPANS = (
    ("kg", "load_triples", "kg.load_triples", None, None),
    ("rules", "canonicalize", "rules.canonicalize", None, None),
    ("rules", "is_connected", "rules.structural", None, ("metrics", "predict")),
    ("rules", "is_safe", "rules.structural", None, ("metrics", "predict")),
    ("metrics", "support", "metrics.support", None, None),
    (
        "metrics",
        "lazy_denominator",
        "metrics.lazy_denominator",
        _counter("metrics.lazy_denominator.passed", lambda r: int(r.passed)),
        None,
    ),
    ("metrics", "cwa_body_size", "metrics.cwa_body_size", None, None),
    ("metrics", "pca_body_size", "metrics.pca_body_size", None, None),
    ("metrics", "evaluate", "metrics.evaluate", None, None),
    ("amie", "mine", "amie.mine", _counter("amie.emitted", len), None),
    ("amie", "refine_dangling", "amie.refine", _counter("amie.refine.children", len), None),
    ("amie", "refine_closing", "amie.refine", _counter("amie.refine.children", len), None),
    ("amie", "refine_instantiated", "amie.refine", _counter("amie.refine.children", len), None),
    (
        "anyburl",
        "sample_path",
        "anyburl.sample_path",
        _counter("anyburl.sample_path.paths", lambda r: int(r is not None)),
        None,
    ),
    ("anyburl", "generalize", "anyburl.generalize", _counter("anyburl.generalize.rules", len), None),
    ("anyburl", "mine_anytime", "anyburl.mine_anytime", _counter("anyburl.stored", len), None),
    ("matrix", "body_product", "matrix.body_product", None, None),
    ("matrix", "adjacency_matrix", "matrix.adjacency_matrix", None, None),
    ("matrix", "matrix_support", "matrix.matrix_support", None, None),
    ("matrix", "matrix_cwa_body_size", "matrix.matrix_cwa_body_size", None, None),
    ("_kernels", "spgemm_bool", "kernels.spgemm_bool", _spgemm_counts, None),
    ("_kernels", "intersect_count", "kernels.intersect_count", None, None),
    ("predict", "complete", "predict.complete", _counter("predict.candidates", len), None),
    ("cli", "run", "cli.run", None, None),
)


class Tracer:
    """Spans kept in memory, at most max_spans of them; totals for all."""

    def __init__(self, max_spans=200_000):
        self.max_spans = max_spans
        self.names = []
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.dropped = 0
        self.next_id = 0
        self.stack = []  # [span id, seconds covered by direct children]
        self.totals = Counter()
        self.restore = []

    def wrap(self, name, fn, count):
        name_id = len(self.names)
        self.names.append(name)
        totals, stack = self.totals, self.stack
        calls_key, s_key, self_key = name + ".calls", name + ".s", name + ".self_s"

        def traced(*args, **kwargs):
            frame = [self.next_id, 0.0]
            self.next_id += 1
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                totals[calls_key] += 1
                totals[s_key] += elapsed
                totals[self_key] += elapsed - frame[1]
                self._record(frame[0], name_id, start, end, parent)
            if count is not None:
                count(totals, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, span_id, name_id, start, end, parent):
        if len(self.span_id) >= self.max_spans:
            self.dropped += 1
            return
        self.span_id.append(span_id)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_parent.append(parent)

    def install(self):
        modules = {
            name.rsplit(".", 1)[-1]: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hornforge" or name.startswith("hornforge."))
        }
        for module, function, name, count, where in SPANS:
            original = getattr(modules[module], function)
            wrapper = self.wrap(name, original, count)
            targets = modules.values() if where is None else [modules[w] for w in where]
            for mod in targets:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.restore):
            setattr(mod, attr, original)
        self.restore.clear()

    def reset_totals(self):
        self.totals.clear()

    def write(self, path):
        """Spans as TSV in the order they opened: id, name, start, end and
        the parent's id (-1 for none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# spans={len(self.span_id)} dropped={self.dropped}\n")
            fh.write("id\tname\tstart\tend\tparent\n")
            for i in sorted(range(len(self.span_id)), key=self.span_id.__getitem__):
                fh.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}"
                    f"\t{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
