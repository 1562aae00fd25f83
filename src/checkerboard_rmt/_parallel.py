"""Deterministic trial-level worker pool on forked processes.

Trials carry their own counter-based random streams, so results only depend on
the trial index.  `parallel_map` splits its items into one contiguous block per
worker, forks a child for every block but the first, and runs the first block
itself.  A child inherits the function and the items, so nothing is pickled on
the way in, and nothing comes back but its exception: `fn` is called for its
effects, and its results land in the rows of a `parallel_rows` table, which the
children share with the parent, or in files.  Every item writes its own rows,
so the worker count never changes what is written.

The worker count is CHECKERBOARD_THREADS, by default os.cpu_count() divided by
the BLAS threads each process runs (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
else one per core): every forked child starts its own BLAS thread pool.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import signal

import numpy as np

from .exceptions import ParameterError

__all__ = ["worker_count", "shared_empty", "private_empty", "parallel_map", "parallel_rows"]

_ENV_VAR = "CHECKERBOARD_THREADS"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_HUGE_PAGE = 2 << 20  # bytes: the smallest array `private_empty` maps

_mapping = False  # inside a mapped call, in the parent's own block or in a child: nested maps run serially


def _blas_threads() -> int:
    for var in _BLAS_VARS:
        raw = os.environ.get(var, "").strip()
        if raw.isdigit() and int(raw) > 0:
            return int(raw)
    return os.cpu_count() or 1


def worker_count() -> int:
    raw = os.environ.get(_ENV_VAR, "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ParameterError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
        return max(1, n)
    return max(1, (os.cpu_count() or 1) // _blas_threads())


def shared_empty(shape) -> np.ndarray:
    """An uninitialized float array in anonymous shared memory: what a forked child writes into it, the parent reads."""
    buffer = mmap.mmap(-1, int(np.prod(shape)) * np.dtype(float).itemsize)
    return np.frombuffer(buffer, dtype=float).reshape(shape)


def private_empty(shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized array for a process's own use, in a fresh private anonymous mapping if it takes at least
    one 2 MiB huge page, else from `np.empty`.

    A mapped array is unmapped when its last view goes, so it never stays resident in the malloc heap, and it
    is advised onto transparent huge pages: it is meant to be written whole.  Where the mapping fails, `np.empty`
    allocates it, or raises numpy's own MemoryError.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape) * dtype.itemsize
    if size >= _HUGE_PAGE:
        try:
            buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        except (OSError, OverflowError):
            pass
        else:
            if hasattr(mmap, "MADV_HUGEPAGE"):
                buffer.madvise(mmap.MADV_HUGEPAGE)
            return np.frombuffer(buffer, dtype=dtype).reshape(shape)
    return np.empty(shape, dtype)


def _run_child(fn, block, write_fd: int) -> None:
    """Call `fn` on every item of `block`, send None or its exception down the pipe and exit; never returns."""
    global _mapping
    _mapping = True
    status = 1
    try:
        try:
            for item in block:
                fn(item)
            error = None
        except BaseException as exc:
            error = exc
        try:
            frame = pickle.dumps(error, pickle.HIGHEST_PROTOCOL)
        except Exception as err:
            frame = pickle.dumps(RuntimeError(f"worker exception could not be pickled: {err!r}"))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(frame)
        status = 0
    finally:
        os._exit(status)


def contiguous_blocks(items) -> list:
    """The blocks `parallel_map` gives its workers: one contiguous run of `items` per worker, the
    first ones one item longer when the split is ragged; a single block for one worker or inside a map."""
    items = list(items)
    workers = 1 if _mapping else max(1, min(worker_count(), len(items)))
    size, extra = divmod(len(items), workers)
    ends = [(b + 1) * size + min(b + 1, extra) for b in range(workers)]
    return [items[start:end] for start, end in zip([0, *ends], ends)]


def parallel_map(fn, items) -> None:
    """Call `fn` on every item, for its effects; a plain loop for one worker and inside another map.

    The parent runs the first block while the children run theirs, then
    reads each child's report in order and raises the first exception.  A
    child that ends without reporting is an error, and every child is ended
    and reaped before this returns or raises.
    """
    global _mapping
    blocks = contiguous_blocks(items)
    if len(blocks) == 1:
        for item in blocks[0]:
            fn(item)
        return
    children = []  # (pid, read end of its pipe)
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_child(fn, block, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        _mapping = True
        try:
            for item in blocks[0]:
                fn(item)
        finally:
            _mapping = False
        for pid, pipe in children:
            try:
                error = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # nothing, or a cut-off pickle
                raise RuntimeError(f"worker process {pid} ended without reporting") from None
            if error is not None:
                raise error
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # no-op on a child that has exited: it waits, unreaped, until here
            os.waitpid(pid, 0)


def _check_trials(trials: int) -> None:
    """Refuse a run over no trials, which would write or check nothing."""
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")


def parallel_rows(rows: int, width: int, step: int, fill) -> np.ndarray:
    """A (rows, width) `shared_empty` table whose rows start..stop are `fill(start, stop)`, each run of `step`
    rows (the last one ragged) one item of `parallel_map`, so the worker count never changes the table."""
    _check_trials(rows)
    table = shared_empty((rows, width))

    def write(start: int) -> None:
        table[start : start + step] = fill(start, min(start + step, rows))

    parallel_map(write, range(0, rows, step))
    return table
