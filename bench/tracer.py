"""Spans around the package's layer boundaries, recorded from outside the package.

`install` wraps the public functions of the package modules, the
`HermitianMatrix` constructor and `numpy.linalg.eigvalsh`, and rebinds every
module attribute that refers to them, so callers that imported a function by
name (``from .spectra import eigensolve``) reach the wrapper too.  Only the
traced pass of the benchmark calls `install`; untraced passes run the package
untouched.

Spans live in memory.  A layer's self time is its span's duration minus the
part of that interval covered by its child spans (the union, so children that
ran concurrently on pool threads are not counted twice).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

PACKAGE = "checkerboard_rmt"
MODULES = ("ensembles", "algebra", "spectra", "moments", "analysis", "_parallel", "cli")
# The exact self-adjointness check inside HermitianMatrix: its copy and compare
# are charged to the constructor's span instead of getting spans of their own.
CHARGED_TO_CALLER = {"conjugate_transpose", "infer_algebra"}
POOL = "parallel.parallel_map"


class Span(NamedTuple):
    sid: int
    parent: "int | None"
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans and counters; `active` turns every wrapper into a pass-through."""

    def __init__(self):
        self.active = True
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    @contextmanager
    def adopt(self, sid: int):
        """Make `sid` the parent of spans opened on this thread (pool threads start empty)."""
        stack = self._stack()
        stack.append(sid)
        try:
            yield
        finally:
            stack.pop()

    def wrap(self, name: str, fn, measure=None):
        """Span every call of `fn`; `measure(args, result)` returns counters to add."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if measure is not None:
                for stat, amount in measure(args, result).items():
                    self.add(f"{name}.{stat}", amount)
            return result

        return traced

    def wrap_pool(self, fn):
        """Span `parallel_map`; its tasks run under that span on whichever thread picks them up."""

        @functools.wraps(fn)
        def traced(task, items):
            if not self.active:
                return fn(task, items)
            items = list(items)
            workers = min(int(os.environ.get("CHECKERBOARD_THREADS", "1")), max(1, len(items)))
            with self.span(POOL) as sid:

                def run_item(item):
                    start = perf_counter()
                    try:
                        with self.adopt(sid):
                            return task(item)
                    finally:
                        self.add(f"{POOL}.busy_s", perf_counter() - start)

                start = perf_counter()
                result = fn(run_item, items)
                self.add(f"{POOL}.capacity_s", (perf_counter() - start) * workers)
            self.add(f"{POOL}.items", len(items))
            return result

        return traced


def _sample_bytes(args, result) -> dict:
    params = args[0]
    return {"bytes": params.algebra.components * params.dim**2 * 8}


def _embed_bytes(args, result) -> dict:
    return {"bytes": args[0].nbytes + result.nbytes}


def _order_sum(args, result) -> dict:
    shape = args[0].shape
    stack = 1
    for extent in shape[:-2]:
        stack *= extent
    return {"order_sum": shape[-1] * stack}


def _bytes_written(args, result) -> dict:
    out = Path(args[0].out)
    return {"bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}


_MEASURES = {
    "ensembles.sample_checkerboard": _sample_bytes,
    "algebra.embed_quaternion_blocks": _embed_bytes,
    "cli.run": _bytes_written,
}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions and numpy's eigvalsh wherever they are looked up."""
    import numpy

    modules = [importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]
    wrappers = {}  # id(original) -> wrapper
    for module in modules:
        label = module.__name__.rsplit(".", 1)[1].lstrip("_")
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and attr not in CHARGED_TO_CALLER
            ):
                name = f"{label}.{attr}"
                if name == POOL:
                    wrappers[id(obj)] = tracer.wrap_pool(obj)
                else:
                    wrappers[id(obj)] = tracer.wrap(name, obj, _MEASURES.get(name))
    eigvalsh = numpy.linalg.eigvalsh
    wrappers[id(eigvalsh)] = tracer.wrap("lapack.eigvalsh", eigvalsh, _order_sum)
    for namespace in [*modules, importlib.import_module(PACKAGE), numpy.linalg]:
        for attr, obj in list(vars(namespace).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(namespace, attr, wrapper)
    matrix_class = importlib.import_module(f"{PACKAGE}.algebra").HermitianMatrix
    matrix_class.__init__ = tracer.wrap("algebra.HermitianMatrix", matrix_class.__init__)


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_stats(tracer: Tracer, window_s: float) -> dict:
    """Per-function totals: calls, self_s, p50_ms, wall_s, plus counters and unattributed time."""
    children = defaultdict(list)
    for span in tracer.spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "durations": []})
    roots = []
    for span in tracer.spans:
        duration = span.end - span.start
        entry = by_name[span.name]
        entry["calls"] += 1
        entry["wall_s"] += duration
        entry["self_s"] += duration - _covered(children[span.sid], span.start, span.end)
        entry["durations"].append(duration)
        if span.parent is None:
            roots.append((span.start, span.end))
    stats = {}
    for name, entry in by_name.items():
        stats[f"{name}.calls"] = entry["calls"]
        stats[f"{name}.self_s"] = entry["self_s"]
        stats[f"{name}.wall_s"] = entry["wall_s"]
        stats[f"{name}.p50_ms"] = 1e3 * statistics.median(entry["durations"])
    stats.update(tracer.counts)
    capacity = tracer.counts.get(f"{POOL}.capacity_s", 0.0)
    stats[f"{POOL}.busy_ratio"] = tracer.counts.get(f"{POOL}.busy_s", 0.0) / capacity if capacity else 0.0
    stats["trace.unattributed_s"] = window_s - _covered(roots, float("-inf"), float("inf"))
    return stats
