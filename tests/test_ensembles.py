"""Checkerboard and hollow samplers: patterns, normalization, determinism."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from checkerboard_rmt import ensembles
from checkerboard_rmt.algebra import DivisionAlgebra
from checkerboard_rmt.ensembles import (
    BATCH_CHUNK,
    CheckerboardParams,
    HollowParams,
    congruence_indicator_matrix,
    sample_checkerboard,
    sample_hollow_chunk,
)
from checkerboard_rmt.exceptions import ParameterError
from checkerboard_rmt.spectra import hollow_eigenvalues

from helpers import conjugate_transpose


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
    m = sample_hollow_chunk(HollowParams(k=1, seed=0), 0, 1)[0]
    assert np.array_equal(m, np.zeros((1, 1)))


def test_hollow_two_by_two_structure():
    m = sample_hollow_chunk(HollowParams(k=2, seed=9), 0, 1)[0]
    assert m[0, 0] == 0.0 and m[1, 1] == 0.0
    assert m[0, 1] == m[1, 0] != 0.0


def test_hollow_unit_second_moment():
    # sample mean of |b_01|^2 over 1e5 draws (98 chunks) close to 1 for every algebra
    for algebra in DivisionAlgebra:
        params = HollowParams(k=2, algebra=algebra, seed=31)
        sizes = [min(BATCH_CHUNK, 100_000 - start) for start in range(0, 100_000, BATCH_CHUNK)]
        entry = np.concatenate([sample_hollow_chunk(params, j, size)[:, 0, 1] for j, size in enumerate(sizes)])
        assert entry.shape[0] == 100_000
        sq = np.abs(entry) ** 2 if algebra is not DivisionAlgebra.QUATERNION else np.sum(entry**2, axis=-1)
        assert abs(sq.mean() - 1.0) < 0.02, algebra


def test_hollow_batch_selfadjoint_zero_diagonal():
    for algebra in DivisionAlgebra:
        batch = sample_hollow_chunk(HollowParams(k=4, algebra=algebra, seed=2), 3, 16)
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
# dim 130 is assembled in three row blocks, the last one ragged
_GOLDEN_ROW_BLOCKS = {
    ("real", "normal"): "c3ab32f14fb6fc7b",
    ("real", "rademacher"): "f7e35c3a9b40fe9e",
    ("complex", "normal"): "19ac0ed5a6ca277e",
    ("complex", "rademacher"): "0798ada3d6399c08",
    ("quaternion", "normal"): "7611aeb7a87ddaee",
    ("quaternion", "rademacher"): "e9500f6d996dd764",
}
# Chunk 0 of a batch: matrices 0-5 of the stream keyed on (seed, chunk 0).
_GOLDEN_HOLLOW_BATCH = {"real": "bf882c4b9386ed56", "complex": "d7347f8fd08443b6", "quaternion": "4112fecd9fbb92a1"}
# 9000 matrices are nine chunks: the last, chunk 8, holds 808
_GOLDEN_BLOCKED_BATCH = {"real": "e93327d8aea75e33", "complex": "9751669beb830eca", "quaternion": "dfc694978ee6d086"}


def _digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("algebra, dist", sorted(_GOLDEN_CHECKERBOARD))
def test_checkerboard_bytes_are_pinned(algebra, dist):
    params = CheckerboardParams(dim=7, k=3, w=1.5, algebra=algebra, distribution=dist, seed=11)
    assert _digest(sample_checkerboard(params, 4).data) == _GOLDEN_CHECKERBOARD[algebra, dist]


@pytest.mark.parametrize("algebra, dist", sorted(_GOLDEN_ROW_BLOCKS))
def test_checkerboard_bytes_are_pinned_across_row_blocks(algebra, dist):
    params = CheckerboardParams(dim=130, k=3, w=1.5, algebra=algebra, distribution=dist, seed=11)
    assert _digest(sample_checkerboard(params, 4).data) == _GOLDEN_ROW_BLOCKS[algebra, dist]


@pytest.mark.parametrize("algebra", sorted(_GOLDEN_HOLLOW_BATCH))
def test_hollow_batch_bytes_are_pinned(algebra):
    batch = sample_hollow_chunk(HollowParams(k=4, algebra=algebra, seed=11), 0, 6)
    assert _digest(batch) == _GOLDEN_HOLLOW_BATCH[algebra]


@pytest.mark.parametrize("algebra", sorted(_GOLDEN_BLOCKED_BATCH))
def test_blocked_hollow_batch_bytes_are_pinned(algebra):
    assert 9000 - 8 * BATCH_CHUNK == 808
    batch = sample_hollow_chunk(HollowParams(k=2, algebra=algebra, seed=5), 8, 808)
    assert _digest(batch) == _GOLDEN_BLOCKED_BATCH[algebra]


def test_hollow_chunk_draws_one_matrix_after_another():
    # the chunk's stream holds matrix 0's components, then matrix 1's, and so on
    params = HollowParams(k=3, algebra="complex", seed=8)
    key = np.array([8, (4 << 48) | 2], dtype=np.uint64)
    draws = np.random.Generator(np.random.Philox(key=key)).standard_normal((5, 2, 3, 3))
    upper = np.triu(draws[:, 0] + 1j * draws[:, 1], 1) / np.sqrt(2.0)
    expected = upper + np.conj(upper.swapaxes(1, 2))
    assert np.array_equal(sample_hollow_chunk(params, 2, 5), expected)


@pytest.mark.parametrize("algebra", ["real", "complex", "quaternion"])
def test_fewer_hollow_trials_are_a_prefix(algebra):
    params = HollowParams(k=3, algebra=algebra, seed=7)
    assert np.array_equal(hollow_eigenvalues(params, 1500), hollow_eigenvalues(params, 5000)[:1500])


def test_hollow_chunk_sizes_are_checked():
    params = HollowParams(3)
    for size in (0, BATCH_CHUNK + 1):
        with pytest.raises(ParameterError, match="chunk size must be in"):
            sample_hollow_chunk(params, 0, size)
    with pytest.raises(ParameterError, match="trials must be positive"):
        hollow_eigenvalues(params, 0)


def _whole_grid_hermitian_from_upper(comps: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """The assembly of whole grids that the row-block loop replaced, kept verbatim as its reference."""
    divisor = algebra.entry_divisor
    if algebra is DivisionAlgebra.REAL:
        upper = np.triu(comps[0], 1)
        return np.add(upper, upper.swapaxes(-1, -2), out=comps[0])
    if algebra is DivisionAlgebra.COMPLEX:
        # one complex division by a float: dividing each part instead rounds differently
        grid = np.divide(comps[0] + 1j * comps[1], divisor)
        upper = np.triu(grid, 1)
        np.conj(upper.swapaxes(-1, -2), out=grid)
        return np.add(upper, grid, out=grid)
    for c in range(4):
        upper = np.triu(comps[c] / divisor, 1)
        (np.add if c == 0 else np.subtract)(upper, upper.swapaxes(-1, -2), out=comps[c])
    return np.moveaxis(comps, 0, -1)


# (components, N, N) around the 64-row block edges, and hollow chunks (components, batch, k, k) as a chunk holds them
_ASSEMBLY_SHAPES = [(1,), (63,), (64,), (65,), (130,), (5, 3), (3, 64), (2, 70)]


@pytest.mark.parametrize("shape", _ASSEMBLY_SHAPES, ids=[str(shape) for shape in _ASSEMBLY_SHAPES])
@pytest.mark.parametrize("algebra", list(DivisionAlgebra), ids=[a.value for a in DivisionAlgebra])
def test_row_blocks_assemble_the_whole_grid_bit_for_bit(algebra, shape):
    # components hold +-0.0, +-inf and NaN of either sign among normal draws, in both triangles and on the diagonal
    *batch, n = shape
    rng = np.random.default_rng(n)
    draws = rng.standard_normal((*batch, algebra.components, n, n))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
    crafted = rng.random(draws.shape) < 0.3
    draws[crafted] = rng.choice(specials, crafted.sum())
    with np.errstate(invalid="ignore"):  # 1j * inf is nan + inf j
        expected, assembled = (
            assemble(draws.copy().swapaxes(0, 1) if batch else draws.copy(), algebra)
            for assemble in (_whole_grid_hermitian_from_upper, ensembles._hermitian_from_upper)
        )
    assert assembled.shape == expected.shape and assembled.dtype == expected.dtype
    assembled, expected = np.ascontiguousarray(assembled), np.ascontiguousarray(expected)
    if algebra is DivisionAlgebra.COMPLEX and expected.nbytes >= 256 * 1024:
        # the reference's c0 + 1j * c1 adds c0 into numpy's elided temporary 1j * c1 (NPY_MIN_ELIDE_BYTES), so a
        # NaN + NaN sum keeps the other NaN: the NaN slots agree as NaN, every other slot bit for bit
        assembled, expected = assembled.view(float), expected.view(float)
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(assembled), nan)
        assembled, expected = assembled[~nan], expected[~nan]
    assert assembled.tobytes() == expected.tobytes()


_SAMPLE_PEAK = """
import sys

from checkerboard_rmt.ensembles import CheckerboardParams, sample_checkerboard


def peak():  # this process's own peak RSS in bytes; ru_maxrss would also hold the peak of the image exec replaced
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) * 1024


algebra, distribution = sys.argv[1:]
sample_checkerboard(CheckerboardParams(dim=8, k=2, algebra=algebra, distribution=distribution), 0)
warm = peak()
matrix = sample_checkerboard(CheckerboardParams(dim=600, k=2, algebra=algebra, distribution=distribution, seed=1), 0)
print(warm, peak(), matrix.data.nbytes)
"""


@pytest.mark.parametrize("algebra, bound", [("real", 1.25), ("complex", 2.5), ("quaternion", 1.25)])
def test_one_trial_is_sampled_in_little_more_than_its_grid(algebra, bound):
    # One N = 600 trial sampled in a fresh interpreter, measured from the warmed-up interpreter's peak RSS, in grids of
    # 8, 16 and 32 N^2 bytes.  Real and quaternion grids are assembled in their draws, a complex one beside them.  The
    # peak grew 1.04, 2.01 and 1.02 grids here for normal draws and 1.06, 2.03 and 1.02 for Rademacher signs; 2.09,
    # 4.06 and 2.27 when whole-grid temporaries came from the heap and a quaternion matrix held a copy of its grid; and
    # 2.00, 2.02 and 1.99 for Rademacher signs drawn as one int64 array beside the draws.
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    src = os.path.dirname(os.path.dirname(ensembles.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for distribution in ("normal", "rademacher"):
        result = subprocess.run([sys.executable, "-c", _SAMPLE_PEAK, algebra, distribution], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        warm, sampled, grid = map(int, result.stdout.split())
        assert sampled - warm < bound * grid, f"{distribution}: {(sampled - warm) / grid:.2f} grids above the warm peak"
