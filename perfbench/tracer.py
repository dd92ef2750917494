"""Spans around calls into the public functions of each coinwalk layer.

``Tracer.install`` wraps every public function defined in the layer modules
and puts the wrapper in every namespace that bound the original, so calls
through ``from .spectral import diagonalize`` in ``cli`` and module-global
calls such as ``diagonalize -> build_unitary`` are all seen.  Spans are kept
in memory as tuples and summarised, or written out, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("lattice", "bulk", "boundstates", "spectral", "cli")


def _ring_length(args, kwargs, position: int, name: str) -> int:
    value = kwargs.get(name, args[position] if len(args) > position else None)
    return int(value.length)


# Computed counts recorded at the span, from the call's own arguments.
COUNTERS = {
    "spectral.diagonalize": lambda a, k: {
        # ~25 n^3 complex operations of QR with eigenvectors, 4 real flops each.
        "spectral.eig_flops_computed": 100 * (2 * _ring_length(a, k, 0, "profile")) ** 3,
    },
    "spectral.build_unitary": lambda a, k: {
        "spectral.dense_bytes_computed": 16 * (2 * _ring_length(a, k, 0, "profile")) ** 2,
    },
    "lattice.evolve": lambda a, k: {
        "lattice.evolve.site_steps": _ring_length(a, k, 1, "profile") * int(k["t"] if "t" in k else a[2]),
    },
}


class Tracer:
    """Records (name, parent, request, start, end, ok) for every wrapped call."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.request = -1
        self.active = False
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, parent, self.request, start, end, ok)
                if counter is not None:
                    for key, value in counter(args, kwargs).items():
                        self.counts[key] += value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"coinwalk.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for module in [importlib.import_module("coinwalk"), *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, failed calls, inclusive and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = defaultdict(lambda: {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, _, _, start, end, ok) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["failed"] += 0 if ok else 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(table)

    def calls_under(self, child: str, ancestor: str) -> int:
        """How many ``child`` spans have an ``ancestor`` span somewhere above them."""
        total = 0
        for name, parent, *_ in self.spans:
            if name != child:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][1]
            total += parent >= 0
        return total

    def write(self, path) -> None:
        keys = ("name", "parent", "request", "start", "end", "ok")
        with open(path, "w", encoding="utf-8") as handle:
            for i, span in enumerate(self.spans):
                handle.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")
