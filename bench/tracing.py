"""Span tracing of entmix from outside the package, and the self-time accounting.

`Tracer.install` wraps every public function defined in an entmix module
and rebinds the wrapper under every name that referred to the original,
in the defining module and in each module that imported it (`from .x
import y` copies the binding).  Each call becomes a span (name, start,
end, parent) kept in memory; `write` saves them to a CSV side file.
Spans assume one thread, which is how the benchmark runs entmix.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("cli", "simulate", "nonlocality", "entanglement", "mixing", "states", "linalg")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            name_of.append(ident)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return span

    def install(self) -> int:
        """Wrap the public functions of entmix's modules; returns how many."""
        modules = [sys.modules["entmix"]] + [sys.modules[f"entmix.{m}"] for m in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{mod.__name__[len('entmix.'):]}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for k, p, t0, t1 in zip(self.name_of, self.parent, self.start, self.end):
                fh.write(f"{self.names[k]},{t0!r},{t1!r},{p}\n")


def read_spans(path: str):
    """(names, start, end, parent) arrays from a side file written by `Tracer.write`."""
    names, start, end, parent = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            n, t0, t1, p = line.split(",")
            names.append(n)
            start.append(float(t0))
            end.append(float(t1))
            parent.append(int(p))
    return np.array(names), np.array(start), np.array(end), np.array(parent, dtype=np.int64)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Calls on one thread nest, so a span's children never overlap and their
    durations sum to the part of the span they cover.
    """
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered
