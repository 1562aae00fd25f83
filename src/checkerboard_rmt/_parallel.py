"""Deterministic trial-level worker pool.

Trials carry their own counter-based random streams, so results only depend on
the trial index; the pool preserves input order and the worker count (env var
CHECKERBOARD_THREADS, default: hardware parallelism) never changes output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .exceptions import ParameterError

__all__ = ["worker_count", "parallel_map"]

_ENV_VAR = "CHECKERBOARD_THREADS"


def worker_count() -> int:
    raw = os.environ.get(_ENV_VAR, "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ParameterError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
        return max(1, n)
    return os.cpu_count() or 1


def parallel_map(fn, items) -> list:
    """Map preserving order; falls back to a plain loop for one worker."""
    items = list(items)
    workers = min(worker_count(), max(1, len(items)))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
