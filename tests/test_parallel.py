"""The forked trial pool: order, errors, dead workers, streamed results, cleanup and the default worker count."""

import os
import signal
import threading
import time

import pytest

from checkerboard_rmt import _parallel, spectra
from checkerboard_rmt._parallel import parallel_iter, parallel_map, worker_count
from checkerboard_rmt.cli import main
from checkerboard_rmt.exceptions import NumericalDegeneracyError


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that waits on its workers for more than a minute instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("parallel_map did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("threads", ["2", "4"])
def test_closure_over_an_unpicklable_object_maps_in_order(threads, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
    lock = threading.Lock()  # cannot be pickled: the children inherit it instead

    def square(x):
        with lock:
            return x * x

    assert parallel_map(square, range(11)) == [square(x) for x in range(11)]
    _assert_no_children()


def test_error_in_a_later_block_reaches_the_parent(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "4")

    def fn(x):
        if x == 9:
            raise NumericalDegeneracyError(f"item {x} is degenerate")
        return x

    with pytest.raises(NumericalDegeneracyError) as info:
        parallel_map(fn, range(12))
    assert type(info.value) is NumericalDegeneracyError and str(info.value) == "item 9 is degenerate"
    _assert_no_children()


def test_cli_error_in_a_worker_is_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "2")
    sample = spectra.sample_checkerboard

    def fail_late(params, t):
        if t >= 2:  # the second block, solved in the child
            raise NumericalDegeneracyError(f"trial {t} failed")
        return sample(params, t)

    monkeypatch.setattr(spectra, "sample_checkerboard", fail_late)
    out = tmp_path / "x"
    assert main(["bulk", "--N", "10", "--trials", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: trial 2 failed\n"
    assert not out.exists()
    _assert_no_children()


def test_a_worker_that_dies_is_an_error(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "2")

    def fn(x):
        if x == 3:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="ended without sending its results"):
        parallel_map(fn, range(4))
    _assert_no_children()


@pytest.mark.parametrize("threads", ["2", "3"])
def test_a_result_that_cannot_be_pickled_is_an_error(threads, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
    lock = threading.Lock()
    with pytest.raises(RuntimeError, match="worker result could not be pickled"):
        parallel_map(lambda x: lock if x == 3 else x, range(4))  # item 3 is in the last child's block
    _assert_no_children()


def test_a_worker_that_dies_midstream_is_an_error(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "2")
    # each result is larger than a pipe's buffer, so the child's later results wait on the pipe
    results = parallel_iter(lambda x: (os.getpid(), bytes(1 << 20)), range(6))
    parent = {next(results)[0] for _ in range(3)}
    pid, _ = next(results)  # the child's first result
    assert parent == {os.getpid()} and pid != os.getpid()
    os.kill(pid, signal.SIGKILL)
    with pytest.raises(RuntimeError, match=f"worker process {pid} ended without sending its results"):
        list(results)
    _assert_no_children()


@pytest.mark.parametrize("taken", [0, 1, 5])  # before the first fork, in the parent's block, in a child's stream
def test_an_abandoned_iterator_leaves_no_child(taken, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "3")
    results = parallel_iter(lambda x: x * x, range(9))
    assert [next(results) for _ in range(taken)] == [x * x for x in range(taken)]
    del results
    _assert_no_children()
    assert _parallel._mapping is False


def test_error_in_the_parents_block_ends_the_workers(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "3")

    def fn(x):
        if x == 0:
            raise ValueError("first item")
        time.sleep(60)
        return x

    start = time.perf_counter()
    with pytest.raises(ValueError, match="first item"):
        parallel_map(fn, range(3))
    assert time.perf_counter() - start < 30
    _assert_no_children()


def test_a_map_inside_a_map_runs_serially(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "4")

    def fn(x):
        return os.getpid(), parallel_map(lambda y: os.getpid(), range(4))

    outer = parallel_map(fn, range(4))
    assert len({pid for pid, _ in outer}) == 4
    assert all(inner == [pid] * 4 for pid, inner in outer)
    assert _parallel._mapping is False
    _assert_no_children()


@pytest.mark.parametrize(
    "openblas, omp, expected",
    [(None, None, 1), ("1", None, 8), ("2", "8", 4), (None, "4", 2), ("0", "2", 4), ("x", None, 1), ("16", None, 1)],
)
def test_default_worker_count_divides_the_cores_by_the_blas_threads(openblas, omp, expected, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.delenv("CHECKERBOARD_THREADS", raising=False)
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    assert worker_count() == expected
    monkeypatch.setenv("CHECKERBOARD_THREADS", "3")
    assert worker_count() == 3
