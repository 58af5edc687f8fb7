"""Spans around calls into qsep's public functions, recorded from outside.

``Tracer.install`` replaces each public function (the names in
``qsep.__all__``, plus ``qsep.cli.main``) at the module attributes through
which other modules, and the benchmark, call it; calls a module makes to its
own functions stay unwrapped. Spans are kept in memory as
(name, start, end, parent index) and written out when the run ends.
``classify_state`` spans carry the method in their name.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "criticality", "separability", "entropy", "states", "linalg")


def _public_functions(qsep) -> dict[str, object]:
    found = {name: getattr(qsep, name) for name in qsep.__all__}
    found = {name: fn for name, fn in found.items() if inspect.isfunction(fn)}
    found["main"] = importlib.import_module("qsep.cli").main
    return found


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name
            if name == "separability.classify_state":
                label = f"{name}.{kwargs.get('method', args[1] if len(args) > 1 else '')}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def install(self, qsep):
        """Wrap qsep's public functions for the duration of the block."""
        modules = [qsep] + [importlib.import_module(f"qsep.{m}") for m in MODULES]
        patched = []
        for name, fn in _public_functions(qsep).items():
            home = fn.__module__
            wrapper = self.wrap(f"{home.removeprefix('qsep.')}.{name}", fn)
            for module in modules:
                caller = module.__name__ != home or name == "main"
                if caller and getattr(module, name, None) is fn:
                    setattr(module, name, wrapper)
                    patched.append((module, name, fn))
        try:
            yield self
        finally:
            for module, name, fn in patched:
                setattr(module, name, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, median microseconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list[float]] = {}
        self_time: dict[str, float] = {}
        for (label, start, end, _), children in zip(self.spans, child_time):
            durations.setdefault(label, []).append(end - start)
            self_time[label] = self_time.get(label, 0.0) + (end - start - children)
        return {
            label: {
                "calls": len(d),
                "busy_s": sum(d),
                "p50_us": statistics.median(d) * 1e6,
                "self_s": self_time[label],
            }
            for label, d in durations.items()
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent\n")
            origin = self.spans[0][1] if self.spans else 0.0
            for i, (label, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{label},{(start - origin) * 1e6:.3f},"
                         f"{(end - origin) * 1e6:.3f},{parent}\n")
