"""Spans and counters around the public functions of each capbound module.

The tracer lives in the benchmark, not in the program.  `install()` finds
every public function of every `capbound` submodule by its `__module__`
and rebinds it, in every `capbound` namespace that imported it, to a
wrapper.  Modules are reached through `importlib` and `sys.modules`
because a package attribute can shadow a submodule of the same name
(`capbound.qnomial` is the function).  A module's name is its layer.

Each wrapped call records a span (id, parent id, job id, name, start,
end).  Spans stay in memory and are written out by `write_spans` at the
end.  Hot leaf functions (HOT below) only bump their layer's call count,
so tracing does not swamp the work it measures; their time counts toward
the span that called them.  A function a later version deletes simply
has no stage time, so its metric is absent rather than the run failing.

Self time of a layer is the duration of its spans minus the part covered
by their child spans.  A stage time is the inclusive time of one
function, counting only its outermost call when it recurses.  The tracer
assumes one thread, which is how every benchmark job runs.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time

PACKAGE = "capbound"
HOT = frozenset({"eval_poly", "complete_triple", "qnomial", "encode_point",
                 "decode_point", "encode_point_p", "decode_point_p"})


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.job = -1
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.stage_s: dict[str, float] = {}
        self.open: dict[str, int] = {}
        self.counters = {"row_requests": 0, "row_reused": 0,
                         "row_ascending": 0, "nodes": 0, "dim_v_total": 0,
                         "eval_count": 0, "nullspace_cells": 0}
        self.rows: dict[tuple[int, int], tuple] = {}
        self.last_n: dict[int, int] = {}
        self.coeff_bits = 0
        self._observers = {"qnomial.qnomial_row": self._on_row,
                           "capsearch.max_capset": self._on_search,
                           "verifier.verify_support_bound": self._on_verify}

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, layer: str, name: str):
        observer = self._observers.get(name)
        stack, spans, clock = self.stack, self.spans, self.clock

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans) + len(stack), clock(), 0.0]
            stack.append(frame)
            self.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.open[name] -= 1
                span_id, start, covered = frame
                duration = end - start
                self.self_s[layer] += duration - covered
                self.calls[layer] += 1
                if parent is not None:
                    parent[2] += duration
                if not self.open[name]:
                    self.stage_s[name] += duration
                spans.append((span_id, parent[0] if parent else -1, self.job,
                              name, start, end))
            if observer is not None:
                observer(result)
            return result

        return wrapped

    def _count(self, fn, layer: str):
        calls = self.calls

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- observers: work counts read off return values ----------------------

    def _on_row(self, row) -> None:
        n, q = getattr(row, "n", None), getattr(row, "q", None)
        if n is None or q is None:
            return
        c = self.counters
        c["row_requests"] += 1
        if (n, q) in self.rows:
            c["row_reused"] += 1
        else:
            self.rows[(n, q)] = getattr(row, "coeffs", ())
        if n > self.last_n.get(q, 0):
            c["row_ascending"] += 1
        self.last_n[q] = n

    def _on_search(self, result) -> None:
        self.counters["nodes"] += getattr(result, "nodes_explored", 0)

    def _on_verify(self, report) -> None:
        n, size, dim_v, lower = (getattr(report, key, None) for key in (
            "n", "set_size", "dim_v", "dim_lower_bound"))
        if None in (n, size, dim_v, lower):
            return
        c = self.counters
        c["dim_v_total"] += dim_v
        # Each basis element is evaluated at |A|^2 pair points and at all 3^n
        # points for its support.  The null space comes from a
        # |complement| x |M(n,d)| evaluation matrix, and the reported lower
        # bound |M(n,d)| - |complement| (checked by the oracles) gives |M(n,d)|.
        complement = 3**n - size
        c["eval_count"] += dim_v * (size * size + 3**n)
        c["nullspace_cells"] += complement * (lower + complement)

    # -- install / summary --------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every capbound submodule."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                origin = getattr(obj, "__module__", None) or ""
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or not origin.startswith(PACKAGE + ".")
                        or getattr(obj, "__name__", None) != attr):
                    continue
                if id(obj) not in wrappers:
                    layer = origin.rsplit(".", 1)[1]
                    name = f"{layer}.{attr}"
                    self.self_s.setdefault(layer, 0.0)
                    self.calls.setdefault(layer, 0)
                    if attr in HOT:
                        wrappers[id(obj)] = self._count(obj, layer)
                    else:
                        self.stage_s[name] = 0.0
                        self.open[name] = 0
                        wrappers[id(obj)] = self._span(obj, layer, name)
                setattr(module, attr, wrappers[id(obj)])

    def finish_rows(self) -> None:
        """Total bits of the distinct rows requested, counted after the
        timed jobs so that it adds nothing to them."""
        self.coeff_bits += sum(c.bit_length() for row in self.rows.values()
                               for c in row)
        self.rows.clear()

    def summary(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "stage_s": dict(self.stage_s),
                "counters": dict(self.counters, coeff_bits=self.coeff_bits),
                "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        names: dict[str, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            rows = [[sid, parent, job, names.setdefault(name, len(names)),
                     round(start, 7), round(end, 7)]
                    for sid, parent, job, name, start, end in self.spans]
            json.dump({"fields": ["id", "parent", "job", "name", "start",
                                  "end"],
                       "names": list(names), "spans": rows}, fh)
