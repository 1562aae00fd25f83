"""Deterministic trial-level worker pool on forked processes.

Trials carry their own counter-based random streams, so results only depend on
the trial index.  `parallel_map` splits its items into one contiguous block per
worker, forks a child for every block but the first, and solves the first block
itself.  A child inherits the function and the items, so nothing is pickled on
the way in; it sends back its pickled results, or its exception, over a pipe.
The result keeps the input order, and the worker count never changes it.

The worker count is CHECKERBOARD_THREADS, by default os.cpu_count() divided by
the BLAS threads each process runs (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
else one per core): every forked child starts its own BLAS thread pool.
"""

from __future__ import annotations

import os
import pickle
import signal

from .exceptions import ParameterError

__all__ = ["worker_count", "parallel_map"]

_ENV_VAR = "CHECKERBOARD_THREADS"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_mapping = False  # inside a parallel_map, in the parent's own block or in a child: nested maps run serially


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


def _run_child(fn, block, write_fd: int) -> None:
    """Map `fn` over `block`, send the pickled outcome down the pipe and exit; never returns."""
    status = 1
    try:
        try:
            outcome = (True, [fn(item) for item in block])
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(f"worker result could not be pickled: {exc!r}")))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _unpickle(pid: int, data: bytes) -> list:
    """The results a child sent; a child's exception is raised here."""
    try:
        ok, value = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):  # nothing, or a cut-off pickle
        raise RuntimeError(f"worker process {pid} ended without sending its results") from None
    if not ok:
        raise value
    return value


def parallel_map(fn, items) -> list:
    """Map preserving order; runs a plain loop for one worker and inside another map."""
    global _mapping
    items = list(items)
    workers = 1 if _mapping else min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    size, extra = divmod(len(items), workers)
    ends = [(b + 1) * size + min(b + 1, extra) for b in range(workers)]
    blocks = [items[start:end] for start, end in zip([0, *ends], ends)]
    children = []  # (pid, read end of its pipe)
    _mapping = True
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_child(fn, block, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [fn(item) for item in blocks[0]]
        for pid, pipe in children:
            results.extend(_unpickle(pid, pipe.read()))
        return results
    finally:
        _mapping = False
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # no-op on a child that has exited: it waits, unreaped, until here
            os.waitpid(pid, 0)
