"""The forked trial pool: shared results and row tables, order, errors, dead workers, cleanup and the default
worker count."""

import itertools
import os
import signal
import threading
import time

import pytest

from checkerboard_rmt import _parallel, spectra
from checkerboard_rmt._parallel import parallel_map, parallel_rows, shared_empty, worker_count
from checkerboard_rmt.cli import main
from checkerboard_rmt.exceptions import NumericalDegeneracyError, ParameterError


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
    out = shared_empty((11, 2))

    def square(x):
        with lock:
            out[x] = x * x, os.getpid()

    parallel_map(square, range(11))
    assert out[:, 0].tolist() == [x * x for x in range(11)]
    assert len(set(out[:, 1])) == int(threads)  # each worker wrote its own block
    _assert_no_children()


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [1, 5, 7, 13])
def test_every_row_is_written_exactly_once(workers, count, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", str(workers))
    out = shared_empty((count, 3))
    out[:] = 0.0

    def fn(x):
        out[x] += (1.0, x, os.getpid())

    parallel_map(fn, range(count))
    assert out[:, 0].tolist() == [1.0] * count and out[:, 1].tolist() == list(range(count))
    pids = out[:, 2].tolist()  # one contiguous run per worker, the first ones one item longer
    runs = [len(list(group)) for _, group in itertools.groupby(pids)]
    assert len(set(pids)) == len(runs) == min(workers, count)
    assert runs == sorted(runs, reverse=True) and runs[0] - runs[-1] <= 1
    _assert_no_children()


def test_error_in_a_later_block_reaches_the_parent(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "4")
    out = shared_empty(12)

    def fn(x):
        if x == 9:
            raise NumericalDegeneracyError(f"item {x} is degenerate")
        out[x] = x

    with pytest.raises(NumericalDegeneracyError) as info:
        parallel_map(fn, range(12))
    assert type(info.value) is NumericalDegeneracyError and str(info.value) == "item 9 is degenerate"
    _assert_no_children()


def test_parallel_rows_with_a_ragged_last_item_is_the_same_at_every_worker_count(monkeypatch):
    def fill(start, stop):  # each row holds its item's bounds and its own index
        return [(start, stop, row) for row in range(start, stop)]

    expected = [[0, 4, row] for row in range(4)] + [[4, 8, row] for row in range(4, 8)] + [[8, 10, 8], [8, 10, 9]]
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("CHECKERBOARD_THREADS", workers)
        assert parallel_rows(10, 3, 4, fill).tolist() == expected, workers
    _assert_no_children()


def test_parallel_rows_refuses_no_rows():
    def fill(start, stop):
        raise AssertionError("filled a table of no rows")

    with pytest.raises(ParameterError, match=r"^trials must be positive, got 0$"):
        parallel_rows(0, 3, 4, fill)


def test_error_in_a_childs_fill_reaches_the_parent(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "2")

    def fill(start, stop):
        if start >= 6:  # the last item, in the child's block
            raise NumericalDegeneracyError(f"rows {start}..{stop} are degenerate")
        return 0.0

    with pytest.raises(NumericalDegeneracyError) as info:
        parallel_rows(8, 2, 2, fill)
    assert type(info.value) is NumericalDegeneracyError and str(info.value) == "rows 6..8 are degenerate"
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
    out = shared_empty(4)

    def fn(x):
        if x == 3:
            os._exit(3)
        out[x] = x

    with pytest.raises(RuntimeError, match="ended without reporting"):
        parallel_map(fn, range(4))
    _assert_no_children()


@pytest.mark.parametrize("threads", ["2", "3"])
def test_an_exception_that_cannot_be_pickled_is_a_runtime_error(threads, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
    lock = threading.Lock()

    def fn(x):
        if x == 3:  # in the last child's block
            raise ValueError(lock)

    with pytest.raises(RuntimeError, match="worker exception could not be pickled"):
        parallel_map(fn, range(4))
    _assert_no_children()


def test_error_in_the_parents_block_ends_the_workers(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "3")

    def fn(x):
        if x == 0:
            raise ValueError("first item")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(ValueError, match="first item"):
        parallel_map(fn, range(3))
    assert time.perf_counter() - start < 30
    assert _parallel._mapping is False
    _assert_no_children()


def test_a_map_inside_a_map_runs_serially(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "4")
    outer, inner = shared_empty(4), shared_empty((4, 4))

    def fn(x):
        outer[x] = os.getpid()
        parallel_map(lambda y: inner.__setitem__((x, y), os.getpid()), range(4))

    parallel_map(fn, range(4))
    assert len(set(outer.tolist())) == 4
    assert all(inner[x].tolist() == [outer[x]] * 4 for x in range(4))
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
