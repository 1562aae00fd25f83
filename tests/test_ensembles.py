"""Checkerboard and hollow samplers: patterns, normalization, determinism."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, conjugate_transpose
from checkerboard_rmt.ensembles import (
    BATCH_CHUNK,
    CheckerboardParams,
    HollowParams,
    congruence_indicator_matrix,
    hollow_chunks,
    sample_checkerboard,
    sample_hollow_batch,
    sample_hollow_chunk,
)
from checkerboard_rmt.exceptions import ParameterError


def test_modulus_one_gives_all_constant():
    m = sample_checkerboard(CheckerboardParams(dim=4, k=1, w=1.0, seed=5), 0)
    assert np.array_equal(m.data, np.ones((4, 4)))


def test_modulus_two_pattern():
    m = sample_checkerboard(CheckerboardParams(dim=6, k=2, w=3.5, seed=5), 0)
    idx = np.arange(6)
    mask = (np.subtract.outer(idx, idx) % 2) == 0
    assert np.all(m.data[mask] == 3.5)
    assert np.all(m.data[~mask] != 3.5)
    assert np.array_equal(m.data, m.data.T)


def test_same_seed_and_trial_bit_identical():
    params = CheckerboardParams(dim=12, k=3, w=1.0, algebra="complex", seed=123)
    a = sample_checkerboard(params, 7)
    b = sample_checkerboard(params, 7)
    assert np.array_equal(a.data, b.data)


def test_distinct_trials_share_no_entries():
    params = CheckerboardParams(dim=16, k=3, w=0.0, seed=123)
    a = sample_checkerboard(params, 0).data
    b = sample_checkerboard(params, 1).data
    off = a != 0
    assert not np.any(a[off] == b[off])


def test_modulus_exceeding_dimension_rejected():
    with pytest.raises(ParameterError):
        CheckerboardParams(dim=3, k=4)


def test_rademacher_entries_are_signs():
    params = CheckerboardParams(dim=8, k=2, w=0.0, distribution="rademacher", seed=1)
    m = sample_checkerboard(params, 0).data
    idx = np.arange(8)
    mask = (np.subtract.outer(idx, idx) % 2) == 0
    assert set(np.unique(m[~mask])) == {-1.0, 1.0}


def test_sampled_matrices_exactly_selfadjoint():
    for algebra in DivisionAlgebra:
        params = CheckerboardParams(dim=9, k=2, w=1.0, algebra=algebra, seed=3)
        m = sample_checkerboard(params, 2)
        assert np.array_equal(m.data, conjugate_transpose(m.data, algebra))
        if algebra is DivisionAlgebra.QUATERNION:
            diag = m.data[np.arange(9), np.arange(9)]
            assert np.all(diag[:, 1:] == 0.0)


def test_off_congruence_entry_statistics():
    # pooled off-stripe entries: mean within 4 standard errors of 0, variance within 5% of 1
    params = CheckerboardParams(dim=64, k=2, w=0.0, seed=17)
    idx = np.arange(64)
    mask = (np.subtract.outer(idx, idx) % 2) == 0
    upper = np.triu(np.ones((64, 64), dtype=bool), 1) & ~mask
    entries = np.concatenate([sample_checkerboard(params, t).data[upper] for t in range(10)])
    assert entries.size >= 10_000
    stderr = entries.std(ddof=1) / np.sqrt(entries.size)
    assert abs(entries.mean()) < 4 * stderr
    assert abs(entries.var(ddof=1) - 1.0) < 0.05


def test_hollow_size_one_is_zero():
    m = sample_hollow_batch(HollowParams(k=1, seed=0), 1)[0]
    assert np.array_equal(m, np.zeros((1, 1)))


def test_hollow_two_by_two_structure():
    m = sample_hollow_batch(HollowParams(k=2, seed=9), 1)[0]
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0
    assert m[0, 1] == m[1, 0] != 0.0


def test_hollow_unit_second_moment():
    # sample mean of |b_01|^2 over 1e5 draws close to 1 for every algebra
    for algebra in DivisionAlgebra:
        batch = sample_hollow_batch(HollowParams(k=2, algebra=algebra, seed=31), 100_000)
        entry = batch[:, 0, 1]
        sq = np.abs(entry) ** 2 if algebra is not DivisionAlgebra.QUATERNION else np.sum(entry**2, axis=-1)
        assert abs(sq.mean() - 1.0) < 0.02, algebra


def test_hollow_batch_selfadjoint_zero_diagonal():
    for algebra in DivisionAlgebra:
        batch = sample_hollow_batch(HollowParams(k=4, algebra=algebra, seed=2), 16)
        for t in (0, 7, 15):
            grid = batch[t]
            assert np.array_equal(grid, conjugate_transpose(grid, algebra))
            diag = grid[np.arange(4), np.arange(4)]
            assert np.all(np.asarray(diag) == 0.0)


def test_indicator_matches_checkerboard_on_stripe():
    z = congruence_indicator_matrix(10, 3, 2.0)
    m = sample_checkerboard(CheckerboardParams(dim=10, k=3, w=2.0, seed=1), 0)
    idx = np.arange(10)
    mask = (np.subtract.outer(idx, idx) % 3) == 0
    assert np.array_equal(z.data[mask], m.data[mask])
    assert np.all(z.data[~mask] == 0.0)


@pytest.mark.parametrize(
    "dim,k,w,expected",
    [
        (6, 3, 1.0, [0, 0, 0, 2, 2, 2]),
        (4, 1, 1.0, [0, 0, 0, 4]),
        (4, 4, 5.0, [5, 5, 5, 5]),
    ],
)
def test_indicator_spectra(dim, k, w, expected):
    vals = np.linalg.eigvalsh(congruence_indicator_matrix(dim, k, w).data)
    assert np.allclose(vals, expected, atol=1e-12)


# sha256 prefixes of sampled bytes at a fixed seed and trial:
# the Philox stream layout and the assembly arithmetic must not move a single bit.
_GOLDEN_CHECKERBOARD = {
    ("real", "normal"): "cad6850a426bae23",
    ("real", "rademacher"): "720596c932652804",
    ("complex", "normal"): "4cbd1ad738fa8d4d",
    ("complex", "rademacher"): "042b891660fcf8b8",
    ("quaternion", "normal"): "2538eec25a249180",
    ("quaternion", "rademacher"): "75889ab04fffd2a8",
}
# A hollow batch is stream batch 0, the only one `hollow` and `compare` read.
_GOLDEN_HOLLOW_BATCH = {"real": "34f63a52646bf357", "complex": "3ea8382ccbc2cb48", "quaternion": "74dc613b9090a9b6"}
# 9000 matrices span three assembly blocks
_GOLDEN_BLOCKED_BATCH = {"real": "1a4ec77081db759d", "complex": "928d2893362c5d4e", "quaternion": "97bdb1e98765e1b2"}


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("algebra, dist", sorted(_GOLDEN_CHECKERBOARD))
def test_checkerboard_bytes_are_pinned(algebra, dist):
    params = CheckerboardParams(dim=7, k=3, w=1.5, algebra=algebra, distribution=dist, seed=11)
    assert _digest(sample_checkerboard(params, 4).data) == _GOLDEN_CHECKERBOARD[algebra, dist]


@pytest.mark.parametrize("algebra", sorted(_GOLDEN_HOLLOW_BATCH))
def test_hollow_batch_bytes_are_pinned(algebra):
    batch = sample_hollow_batch(HollowParams(k=4, algebra=algebra, seed=11), 6)
    assert _digest(batch) == _GOLDEN_HOLLOW_BATCH[algebra]


@pytest.mark.parametrize("algebra", sorted(_GOLDEN_BLOCKED_BATCH))
def test_blocked_hollow_batch_bytes_are_pinned(algebra):
    batch = sample_hollow_batch(HollowParams(k=2, algebra=algebra, seed=5), 9000)
    assert _digest(batch) == _GOLDEN_BLOCKED_BATCH[algebra]


def test_hollow_batch_assembles_without_a_full_copy():
    # the draws become the output; only one block of triangle copies is alive at a time
    tracemalloc.start()
    try:
        batch = sample_hollow_batch(HollowParams(16), 32768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * batch.nbytes


@pytest.mark.parametrize("trials, sizes", [(9000, [BATCH_CHUNK] * (9000 // BATCH_CHUNK) + [9000 % BATCH_CHUNK]),
                                           (1000, [1000])],
                         ids=["ragged", "one-chunk"])
@pytest.mark.parametrize("algebra", ["real", "complex", "quaternion"])
def test_streamed_chunks_equal_the_whole_batch(algebra, trials, sizes):
    # each component's draws are one run of the stream: chunk j of component c starts mid-stream
    params = HollowParams(k=3, algebra=algebra, seed=7)
    chunks = hollow_chunks(params, trials)
    assert [size for size, _ in chunks] == sizes
    assert all(len(states) == params.algebra.components for _, states in chunks)
    streamed = np.concatenate([sample_hollow_chunk(params, chunk) for chunk in chunks])
    whole = sample_hollow_batch(params, trials)
    assert streamed.dtype == whole.dtype and streamed.shape == whole.shape
    assert streamed.tobytes() == whole.tobytes()


def test_hollow_chunks_need_a_trial():
    with pytest.raises(ParameterError, match="trials must be positive"):
        hollow_chunks(HollowParams(3), 0)
