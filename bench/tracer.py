"""Spans around the public functions of each lacunary module.

The tracer wraps the functions from outside the package: it replaces every
module-level reference to a wrapped function (and the ring operators of the
series classes) with a wrapper that records one span per call.  Nothing
under ``src/`` changes.  Spans are kept in flat arrays in memory (name, parent,
start, end) and written out when the run ends; a span's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
from array import array
from time import perf_counter

# the layers, in import order: each is a module of the lacunary package
LAYERS = ("series", "hermite", "hypergeom", "operators", "closed_forms",
          "normal_ordering", "verify", "cli")
# private helpers that a per-layer metric names
PRIVATE = {"closed_forms._leibniz_prefactor"}
# ring operators of the series classes: span name -> the dunder methods it covers
OPERATORS = {
    ("BivarPoly", "mul"): ("__mul__", "__rmul__"),
    ("BivarPoly", "add"): ("__add__", "__radd__"),
    ("LambdaSeries", "mul"): ("__mul__", "__rmul__"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def open(self, name: str) -> int:
        i = len(self.span_name)
        self.span_name.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(i)
        return i

    def close(self, i: int):
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self.stack

        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def adopt(self, spans: dict):
        """Append spans recorded by another process under the open span."""
        base = len(self.span_name)
        top = self.stack[-1] if self.stack else -1
        ids = [self._nid(n) for n in spans["names"]]
        for nid, par, s, e in zip(spans["name"], spans["parent"], spans["start"], spans["end"]):
            self.span_name.append(ids[nid])
            self.parent.append(top if par < 0 else base + par)
            self.start.append(s)
            self.end.append(e)

    # -- installing the wrappers -------------------------------------------

    def install(self):
        """Wrap the public functions of every layer and the series ring operators."""
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"lacunary.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE)):
                    originals[id(obj)] = (obj, self.wrap(name, obj))
        series = importlib.import_module("lacunary.series")
        for (cls_name, op), dunders in OPERATORS.items():
            cls = getattr(series, cls_name)
            fn = cls.__dict__[dunders[0]]
            wrapped = self.wrap(f"series.{cls_name}.{op}", fn)
            for d in dunders:
                self._patch(cls, d, cls.__dict__[d], wrapped)
        # every module that imported a wrapped function by name gets the wrapper
        for modname in ["lacunary"] + [f"lacunary.{layer}" for layer in LAYERS]:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, obj, hit[1])

    def _patch(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> array:
        dur = array("d", (e - s for s, e in zip(self.start, self.end)))
        child = array("d", bytes(8 * len(dur)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        return array("d", (d - c for d, c in zip(dur, child)))

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, total milliseconds and self milliseconds."""
        self_t = self.self_times()
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            total[nid] += self.end[i] - self.start[i]
            own[nid] += self_t[i]
        return {n: {"calls": calls[k], "ms": total[k] * 1e3, "self_ms": own[k] * 1e3}
                for k, n in enumerate(self.names)}

    def spans(self) -> dict:
        return {"names": self.names, "name": list(self.span_name),
                "parent": list(self.parent), "start": list(self.start),
                "end": list(self.end)}

    def write(self, path, header: dict):
        """Write the totals, then one tab-separated line per span, gzipped.

        The first line is ``# `` and a JSON object (the header, the span
        names and the totals); each span line holds its index, name, parent
        index, start, end and self time, the times in microseconds from the
        first span.
        """
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# " + json.dumps(dict(header, names=self.names, totals=self.totals())) + "\n")
            fh.write("span\tname\tparent\tstart_us\tend_us\tself_us\n")
            for i, (nid, par, s, e, own) in enumerate(zip(
                    self.span_name, self.parent, self.start, self.end, self.self_times())):
                fh.write(f"{i}\t{self.names[nid]}\t{par}\t{(s - t0) * 1e6:.3f}\t"
                         f"{(e - t0) * 1e6:.3f}\t{own * 1e6:.3f}\n")
