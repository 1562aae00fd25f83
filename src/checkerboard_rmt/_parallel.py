"""Deterministic trial-level worker pool on forked processes.

Trials carry their own counter-based random streams, so results only depend on
the trial index.  `parallel_iter` splits its items into one contiguous block per
worker, forks a child for every block but the first, and solves the first block
itself.  A child inherits the function and the items, so nothing is pickled on
the way in.  It pickles every result before it sends anything, then streams a
status header (or its exception) and one pickle per result over a pipe, which
the parent reads one result at a time.  The results keep the input order, and
the worker count never changes them; `parallel_map` is their list.

The worker count is CHECKERBOARD_THREADS, by default os.cpu_count() divided by
the BLAS threads each process runs (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS,
else one per core): every forked child starts its own BLAS thread pool.
"""

from __future__ import annotations

import os
import pickle
import signal

from .exceptions import ParameterError

__all__ = ["worker_count", "contiguous_blocks", "parallel_iter", "parallel_map"]

_ENV_VAR = "CHECKERBOARD_THREADS"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

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


def _run_child(fn, block, write_fd: int) -> None:
    """Map `fn` over `block`, send a status header and the pickled results down the pipe and exit; never returns.

    Every result is pickled before anything is sent, so a result that cannot
    be pickled, like an exception of `fn`, makes the header an error.
    """
    global _mapping
    _mapping = True
    status = 1
    try:
        try:
            frames = [pickle.dumps((True, None))]
            for item in block:
                result = fn(item)
                try:
                    frames.append(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                except Exception as exc:
                    raise RuntimeError(f"worker result could not be pickled: {exc!r}") from None
        except BaseException as exc:
            try:
                frames = [pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)]
            except Exception as err:
                frames = [pickle.dumps((False, RuntimeError(f"worker result could not be pickled: {err!r}")))]
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.writelines(frames)
        status = 0
    finally:
        os._exit(status)


def _load(pid: int, pipe):
    """The next pickle a child sent."""
    try:
        return pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # nothing more, or a cut-off pickle
        raise RuntimeError(f"worker process {pid} ended without sending its results") from None


def _receive(pid: int, pipe, count: int):
    """The `count` results a child streams, unpickled one at a time; a child's exception is raised here."""
    ok, error = _load(pid, pipe)
    if not ok:
        raise error
    for _ in range(count):
        yield _load(pid, pipe)


def contiguous_blocks(items) -> list:
    """The blocks `parallel_map` gives its workers: one contiguous run of `items` per worker, the
    first ones one item longer when the split is ragged; a single block for one worker or inside a map."""
    items = list(items)
    workers = 1 if _mapping else max(1, min(worker_count(), len(items)))
    size, extra = divmod(len(items), workers)
    ends = [(b + 1) * size + min(b + 1, extra) for b in range(workers)]
    return [items[start:end] for start, end in zip([0, *ends], ends)]


def parallel_iter(fn, items):
    """`fn` over `items`, in order, as an iterator; a plain loop for one worker and inside another map.

    The children are forked at the first `next`.  The parent's own block comes
    first, each result as it is solved, then each child's results, read off its
    pipe one at a time.  Closing the iterator, or dropping it, ends and reaps
    every child.
    """
    global _mapping
    blocks = contiguous_blocks(items)
    if len(blocks) == 1:
        yield from map(fn, blocks[0])
        return
    children = []  # (pid, read end of its pipe, its item count)
    try:
        for block in blocks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_child(fn, block, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), len(block)))
        for item in blocks[0]:
            _mapping = True  # only while `fn` runs: the consumer's own code between results is not inside a map
            try:
                result = fn(item)
            finally:
                _mapping = False
            yield result
        for pid, pipe, count in children:
            yield from _receive(pid, pipe, count)
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)  # no-op on a child that has exited: it waits, unreaped, until here
            os.waitpid(pid, 0)


def parallel_map(fn, items) -> list:
    """The list of `parallel_iter(fn, items)`."""
    return list(parallel_iter(fn, items))
