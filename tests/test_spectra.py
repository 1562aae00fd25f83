"""Eigensolution, the bulk and blip measures, and their averages."""

import math
import mmap
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from checkerboard_rmt import _lapack, spectra
from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks, embed_quaternion_upper
from checkerboard_rmt.cli import main
from checkerboard_rmt.ensembles import (
    BATCH_CHUNK,
    CheckerboardParams,
    HollowParams,
    congruence_indicator_matrix,
    sample_checkerboard,
    sample_hollow_chunk,
)
from checkerboard_rmt.exceptions import EigensolveError, NumericalDegeneracyError, ParameterError
from checkerboard_rmt.moments import measure_moments
from checkerboard_rmt.spectra import (
    AtomicMeasure,
    BlipConfig,
    Spectrum,
    average_measures,
    _eigenvalues,
    blip_measure,
    blip_weight,
    bulk_measure,
    default_average_count,
    default_blip_half_degree,
    eigensolve,
    histogram,
    hollow_eigenvalues,
    trial_spectra,
)

from helpers import random_hermitian


def test_identity_spectrum():
    spectrum = eigensolve(HermitianMatrix(np.eye(5), "real"))
    assert np.allclose(spectrum.eigenvalues, np.ones(5))


def test_two_by_two_offdiagonal_spectrum():
    b = 1.7
    spectrum = eigensolve(HermitianMatrix(np.array([[0.0, b], [b, 0.0]]), "real"))
    assert np.allclose(spectrum.eigenvalues, [-b, b], atol=1e-14)


def test_indicator_matrix_spectrum():
    spectrum = eigensolve(congruence_indicator_matrix(6, 3, 1.0))
    assert np.allclose(spectrum.eigenvalues, [0, 0, 0, 2, 2, 2], atol=1e-12)


@pytest.mark.parametrize(
    "algebra,sizes",
    [
        (DivisionAlgebra.REAL, (3, 17, 64, 512)),
        (DivisionAlgebra.COMPLEX, (5, 33, 128)),
        (DivisionAlgebra.QUATERNION, (4, 16, 96)),
    ],
)
def test_eigenvalue_sum_matches_trace(algebra, sizes):
    for dim in sizes:
        params = CheckerboardParams(dim=dim, k=2, w=1.0, algebra=algebra, seed=dim)
        m = sample_checkerboard(params, 0)
        spectrum = eigensolve(m)
        assert spectrum.eigenvalues.size == dim
        total, trace = spectrum.eigenvalues.sum(), m.trace()
        assert abs(total - trace) <= 1e-8 * max(1.0, abs(trace))


def test_quaternion_path_matches_embedding():
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, 6, DivisionAlgebra.QUATERNION)
    direct = eigensolve(m).eigenvalues
    doubled = np.linalg.eigvalsh(embed_quaternion_blocks(m.data))
    assert np.allclose(direct, doubled[0::2], rtol=1e-8)
    assert np.allclose(direct, doubled[1::2], rtol=1e-8)


def _skip_unless_bound():
    if _lapack.two_stage_routines() is None:
        pytest.skip("numpy's BLAS exports no ILP64 zhetrd_he2hb, zhetrd_hb2st and dsterf")


@pytest.mark.parametrize("algebra, dim", [("complex", 416), ("quaternion", 208), ("quaternion", 300)])
def test_two_stage_solve_takes_the_upper_triangle_alone(algebra, dim, monkeypatch):
    # LAPACK reads one triangle: handed only that, written from the components for a quaternion matrix with no
    # whole embedding built, it gives the same bits as the whole grid copied into its buffer
    _skip_unless_bound()
    matrix = sample_checkerboard(CheckerboardParams(dim=dim, k=2, algebra=algebra, seed=dim), 0)
    quaternion = algebra == "quaternion"
    grid = embed_quaternion_blocks(matrix.data) if quaternion else matrix.data
    whole = _lapack.eigvalsh_upper(len(grid), lambda out: np.copyto(out, grid))

    def refuse(*args):
        raise AssertionError("the two-stage path built a whole embedding")

    monkeypatch.setattr(spectra, "embed_quaternion_blocks", refuse)
    assert eigensolve(matrix).eigenvalues.tobytes() == (whole[0::2] if quaternion else whole).tobytes()


@pytest.mark.parametrize("algebra, dim", [("complex", 416), ("complex", 600), ("quaternion", 208)])
def test_two_stage_triangle_rows_start_on_pages(algebra, dim):
    # row i of the C-order triangle, LAPACK's column i from the diagonal down, starts on a page for every i, and the
    # triangle written through the strided view is the one LAPACK solves
    _skip_unless_bound()
    matrix = sample_checkerboard(CheckerboardParams(dim=dim, k=2, algebra=algebra, seed=dim), 0)
    quaternion = algebra == "quaternion"
    order = 2 * dim if quaternion else dim

    def write_upper(out):
        assert out.shape == (order, order) and out.strides[1] == 16
        lda = out.strides[0] // 16
        assert lda >= order
        assert all((out.ctypes.data + 16 * i * (lda + 1)) % mmap.PAGESIZE == 0 for i in range(order))
        (embed_quaternion_upper if quaternion else _lapack.copy_upper)(matrix.data, out)

    vals = _lapack.eigvalsh_upper(order, write_upper)
    expected = np.linalg.eigvalsh(embed_quaternion_blocks(matrix.data) if quaternion else matrix.data)
    assert np.abs(vals - expected).max() <= 1e-12 * np.abs(expected).max()


@pytest.mark.parametrize("scale", [1e250, 1e-250])
@pytest.mark.parametrize("algebra, dim", [("complex", 416), ("quaternion", 208)])
def test_two_stage_solve_holds_at_extreme_scales(algebra, dim, scale):
    # the stages run unscaled, where zheevd_2stage would scale a grid whose largest entry is near under- or overflow
    _skip_unless_bound()
    data = sample_checkerboard(CheckerboardParams(dim=dim, k=2, algebra=algebra, seed=dim), 0).data * scale
    quaternion = algebra == "quaternion"
    expected = np.linalg.eigvalsh(embed_quaternion_blocks(data) if quaternion else data)
    expected = expected[0::2] if quaternion else expected
    vals = eigensolve(HermitianMatrix(data, algebra)).eigenvalues
    assert np.abs(vals - expected).max() <= 1e-12 * np.abs(expected).max()


_TRIAL_PEAK = """
from checkerboard_rmt import _lapack
from checkerboard_rmt.ensembles import CheckerboardParams, sample_checkerboard
from checkerboard_rmt.spectra import eigensolve


def peak():  # this process's own peak RSS in bytes; ru_maxrss would also hold the peak of the image exec replaced
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) * 1024


eigensolve(sample_checkerboard(CheckerboardParams(dim=8, k=2, algebra="quaternion"), 0))
assert _lapack.two_stage_routines() is not None
warm = peak()
eigensolve(sample_checkerboard(CheckerboardParams(dim=600, k=2, algebra="quaternion", seed=1), 0))
print(warm, peak())
"""


def test_one_quaternion_trial_peaks_below_an_embedding_and_its_copy():
    # One N = 600 quaternion trial in a fresh interpreter, measured from the warmed-up interpreter's peak RSS. Its
    # (N, N, 4) components take 32 N^2 bytes (11 MiB). The trial peaked 2.49 times that above the warm peak here
    # (27.3 MiB: the components, then the touched triangle, its rows starting on pages, and stage 1's workspace),
    # 2.65 times (29.1 MiB) when the triangle's rows sat 2N apart, 2.8 times (31 MiB) when the matrix held a copy of
    # its draws, and 4.4 times (49 MiB) when it held its 64 N^2-byte embedding and LAPACK was handed a whole copy of it.
    _skip_unless_bound()
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak RSS from")
    src = os.path.dirname(os.path.dirname(spectra.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}
    result = subprocess.run([sys.executable, "-c", _TRIAL_PEAK], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    warm, solved = map(int, result.stdout.split())
    components = 32 * 600**2
    assert 2 * components <= solved - warm < 2.6 * components, f"{(solved - warm) / 2**20:.1f} MiB above the warm peak"


# complex orders on both sides of TWO_STAGE_MIN_ORDER = 416; a quaternion matrix is solved as its order-2N embedding
@pytest.mark.parametrize(
    "algebra, dim",
    [("real", 600), ("complex", 415), ("complex", 416), ("complex", 600), ("quaternion", 200), ("quaternion", 208),
     ("quaternion", 300)],
)
@pytest.mark.parametrize("bound", [True, False], ids=["bound", "unbound"])
def test_large_complex_grids_take_the_two_stage_solver(algebra, dim, bound, monkeypatch):
    stages = _lapack.two_stage_routines()
    orders = []

    def spy(*args):  # stage 1 is called twice per solve: its workspace query, then the reduction
        orders.append(args[1])
        return stages.zhetrd_he2hb(*args)

    bound = bound and stages is not None
    monkeypatch.setattr(_lapack, "two_stage_routines", lambda: stages._replace(zhetrd_he2hb=spy) if bound else None)
    matrix = sample_checkerboard(CheckerboardParams(dim=dim, k=2, algebra=algebra, seed=dim), 0)
    quaternion = algebra == "quaternion"
    grid = embed_quaternion_blocks(matrix.data) if quaternion else matrix.data
    numpy_vals = np.linalg.eigvalsh(grid)
    expected = numpy_vals[0::2] if quaternion else numpy_vals
    two_stage = algebra != "real" and len(grid) >= _lapack.TWO_STAGE_MIN_ORDER
    vals = eigensolve(matrix).eigenvalues
    if two_stage and bound:
        assert np.abs(vals - expected).max() <= 1e-12 * np.abs(expected).max()
    else:
        assert np.array_equal(vals, expected)
    # a stack of grids, as a hollow chunk is, always goes to numpy
    stacked = np.linalg.eigvalsh(np.stack([grid, grid]))
    stack_vals = _eigenvalues(np.stack([matrix.data, matrix.data]), matrix.algebra)
    assert np.array_equal(stack_vals, stacked[:, 0::2] if quaternion else stacked)
    assert orders == ([len(grid)] * 2 if two_stage and bound else [])


@pytest.mark.parametrize("info", [1, -1010])
@pytest.mark.parametrize("algebra, dim", [("complex", 416), ("quaternion", 208)])
def test_failed_two_stage_solve_is_an_eigensolve_error(algebra, dim, info, tmp_path, capsys, monkeypatch):
    # each stage in turn reports the info, the stages before it running for real
    _skip_unless_bound()
    monkeypatch.setenv("CHECKERBOARD_THREADS", "1")
    stages = _lapack.two_stage_routines()
    order = 2 * dim if algebra == "quaternion" else dim
    for name in stages._fields:
        failing = stages._replace(**{name: lambda *args: info})
        monkeypatch.setattr(_lapack, "two_stage_routines", lambda: failing)
        message = f"eigendecomposition failed for a {algebra} grid of shape ({order}, {order}): {name} returned info={info}"
        with pytest.raises(EigensolveError, match=re.escape(message)):
            eigensolve(sample_checkerboard(CheckerboardParams(dim=dim, k=2, algebra=algebra), 0))
        out = tmp_path / name
        argv = ["sample", "--k", "2", "--N", str(dim), "--trials", "1", "--algebra", algebra, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("algebra", ["real", "complex"])
def test_hollow_eigenvalues_chunks_match_one_solve(algebra):
    # 9000 matrices: nine chunks on the trial pool, in order, each matrix solved on its own
    params = HollowParams(k=3, algebra=algebra, seed=4)
    sizes = [BATCH_CHUNK] * 8 + [9000 - 8 * BATCH_CHUNK]
    batch = np.concatenate([sample_hollow_chunk(params, j, size) for j, size in enumerate(sizes)])
    assert np.array_equal(hollow_eigenvalues(params, 9000), np.linalg.eigvalsh(batch))


def test_hollow_eigenvalues_hold_one_chunk_of_draws(monkeypatch):
    # the whole draw of 32768 matrices of 16 x 16 is 67 MB; the stream keeps a chunk of it at a time
    monkeypatch.setenv("CHECKERBOARD_THREADS", "1")
    full_draw = 32768 * 16 * 16 * 8
    tracemalloc.start()
    try:
        eigs = hollow_eigenvalues(HollowParams(16), 32768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eigs.shape == (32768, 16)
    assert peak < 0.2 * full_draw


def test_hollow_eigenvalues_are_held_once(monkeypatch):
    # each chunk's eigenvalues go into the shared result, which tracemalloc does not see: the traced peak is
    # the per-chunk work, and a list of chunks or a concatenated copy on the heap would exceed it
    monkeypatch.setenv("CHECKERBOARD_THREADS", "1")
    tracemalloc.start()
    try:
        eigs = hollow_eigenvalues(HollowParams(4, seed=7), 200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eigs.shape == (200_000, 4)
    assert peak < 0.25 * eigs.nbytes


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("algebra", ["real", "complex", "quaternion"])
def test_trial_spectra_equal_serial_solves(algebra, threads, monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
    params = CheckerboardParams(dim=12, k=3, w=1.5, algebra=algebra, seed=9)
    pooled = trial_spectra(params, range(3, 7))
    serial = [eigensolve(sample_checkerboard(params, t)) for t in range(3, 7)]
    assert len(pooled) == len(serial) == 4
    for got, expected in zip(pooled, serial):
        assert got.source_dimension == expected.source_dimension == 12
        assert np.array_equal(got.eigenvalues, expected.eigenvalues)


def _whole_grid_eigenvalues(data, algebra):
    """numpy's eigvalsh of a grid or stack, a quaternion one as its whole embedding, every other eigenvalue kept."""
    if DivisionAlgebra.parse(algebra) is not DivisionAlgebra.QUATERNION:
        return np.linalg.eigvalsh(data)
    return np.linalg.eigvalsh(embed_quaternion_blocks(data))[..., 0::2]


# k = 2, w = 0: every same-parity entry is zero.  Complex 416 and 417 and quaternion 208 and 209 are orders that the
# two-stage solver would take.
_BIPARTITE = [(algebra, dim) for algebra in ("real", "complex", "quaternion") for dim in (2, 3, 41, 200)]
_BIPARTITE += [("complex", 416), ("complex", 417), ("quaternion", 208), ("quaternion", 209)]


@pytest.mark.parametrize("algebra, dim", _BIPARTITE)
def test_bipartite_grids_are_solved_from_singular_values(algebra, dim, monkeypatch):
    matrix = sample_checkerboard(CheckerboardParams(dim=dim, k=2, w=0.0, algebra=algebra, seed=dim), 0)
    expected = _whole_grid_eigenvalues(matrix.data, algebra)

    def refuse(*args):
        raise AssertionError("a bipartite grid left the singular-value route")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(_lapack, "two_stage_routines", refuse)
    vals = eigensolve(matrix).eigenvalues
    assert vals.shape == (dim,)
    assert np.abs(vals - expected).max() <= 1e-13 * np.abs(expected).max()
    # |p - q| exact zeros, all +0.0: one at odd N, none at even N
    assert np.count_nonzero(vals == 0.0) == np.count_nonzero((vals == 0.0) & ~np.signbit(vals)) == dim % 2


@pytest.mark.parametrize("algebra", ["real", "complex", "quaternion"])
def test_bipartite_trial_spectra_are_the_same_at_every_worker_count(algebra, monkeypatch):
    params = CheckerboardParams(dim=41, k=2, w=0.0, algebra=algebra, seed=29)
    pooled = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
        pooled[threads] = b"".join(s.eigenvalues.tobytes() for s in trial_spectra(params, range(5)))
    assert pooled["1"] == pooled["2"] == pooled["3"]


def _one_same_parity_entry(algebra, i, j):
    """A k = 2, w = 0 grid with the same-parity entries (i, j) and (j, i) set to 0.5."""
    data = sample_checkerboard(CheckerboardParams(dim=12, k=2, w=0.0, algebra=algebra, seed=5), 0).data.copy()
    data[i, j] = data[j, i] = (0.5, 0.0, 0.0, 0.0) if algebra == "quaternion" else 0.5
    return HermitianMatrix(data, algebra).data


_NOT_BIPARTITE = {
    "w=1": lambda algebra: sample_checkerboard(CheckerboardParams(dim=12, k=2, w=1.0, algebra=algebra, seed=5), 0).data,
    "even-rows-entry": lambda algebra: _one_same_parity_entry(algebra, 0, 2),
    "odd-rows-entry": lambda algebra: _one_same_parity_entry(algebra, 5, 11),
    "k=3": lambda algebra: sample_checkerboard(CheckerboardParams(dim=12, k=3, w=0.0, algebra=algebra, seed=5), 0).data,
    "hollow-k=2-stack": lambda algebra: sample_hollow_chunk(HollowParams(k=2, algebra=algebra, seed=5), 0, 16),
    # all zeros, so read as one grid its even and odd rows' same-parity blocks would be zero
    "hollow-k=1-stack": lambda algebra: sample_hollow_chunk(HollowParams(k=1, algebra=algebra, seed=5), 0, 16),
}


@pytest.mark.parametrize("grid", list(_NOT_BIPARTITE))
@pytest.mark.parametrize("algebra", ["real", "complex", "quaternion"])
def test_other_grids_never_reach_the_singular_value_route(algebra, grid, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    data = _NOT_BIPARTITE[grid](algebra)
    expected = _whole_grid_eigenvalues(data, algebra)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    assert _eigenvalues(data, DivisionAlgebra.parse(algebra)).tobytes() == np.ascontiguousarray(expected).tobytes()


def test_kramers_check_holds_on_the_singular_value_route(monkeypatch):
    # a bipartite N = 4 quaternion grid whose faked singular values 3, 3, 2, 1 split one pair: the spectrum
    # -3, -3, -2, -1, 1, 2, 3, 3 fails the check at the first of the two split pairs it mirrors into
    matrix = sample_checkerboard(CheckerboardParams(dim=4, k=2, w=0.0, algebra="quaternion"), 0)
    monkeypatch.setattr(np.linalg, "svd", lambda block, compute_uv=True: np.array([3.0, 3.0, 2.0, 1.0]))
    with pytest.raises(NumericalDegeneracyError, match=r"worst pair \(-2\.0, -1\.0\)$"):
        _eigenvalues(matrix.data, DivisionAlgebra.QUATERNION)


@pytest.mark.parametrize("algebra", ["real", "quaternion"])
def test_failed_eigendecomposition_is_an_eigensolve_error(algebra, monkeypatch):
    def fail(grid):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    matrix = sample_checkerboard(CheckerboardParams(dim=6, k=2, algebra=algebra), 0)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigensolveError, match="did not converge"):
        hollow_eigenvalues(HollowParams(k=3, algebra=algebra, seed=4), 10)
    with pytest.raises(EigensolveError, match="did not converge"):
        eigensolve(matrix)


def test_bulk_measure_atoms():
    single = bulk_measure(Spectrum(np.zeros(1)))
    assert single.locations.tolist() == [0.0] and single.weights.tolist() == [1.0]
    pair = bulk_measure(Spectrum(np.array([-2.0, 2.0])))
    assert np.allclose(pair.locations, [-math.sqrt(2), math.sqrt(2)])
    assert np.allclose(pair.weights, [0.5, 0.5])
    assert pair.total_mass == 1.0


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("algebra", [a.value for a in DivisionAlgebra])
def test_rademacher_bulk_second_moment_is_exact(algebra, k):
    # At w = 0 with k | N every random entry has |x| = 1, so the bulk m2 = tr(A^2) / N^2 of each trial counts the
    # N^2 (k-1)/k random slots: it is (k-1)/k up to rounding.  A wrong Rademacher divisor moves it by a factor; normal
    # draws read 0.015-0.069 off at these configs.
    params = CheckerboardParams(dim=60, k=k, w=0.0, algebra=algebra, distribution="rademacher", seed=7)
    for spectrum in trial_spectra(params, range(4)):
        assert abs(measure_moments(bulk_measure(spectrum), 2)[2] - (k - 1) / k) <= 1e-12


def test_blip_weight_values():
    for n in (1, 5, 25):
        assert blip_weight(1.0, n) == 1.0
        assert blip_weight(0.0, n) == 0.0
        assert blip_weight(2.0, n) == 0.0
    assert blip_weight(0.5, 1) == pytest.approx(0.5625, rel=1e-15)


def test_blip_weight_bounds_and_monotonicity():
    grid = np.linspace(0.0, 2.0, 1000)
    rising = np.linspace(0.0, 1.0, 1000)
    for n in (1, 5, 25):
        vals = blip_weight(grid, n)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(blip_weight(rising, n)) >= 0.0)


def test_blip_measure_exact_atom_weights():
    # an eigenvalue exactly at N/k carries weight exactly 1/k; one at 0 carries 0
    dim, k = 8, 2
    cfg = BlipConfig.for_dimension(dim, k, n=3)
    spectrum = Spectrum(np.array([0.0, 1.0, 3.0, 3.5, 3.9, 4.0, 4.0, 4.0]))
    measure = blip_measure(spectrum, k, cfg)
    at_target = measure.locations == 0.0
    assert np.all(measure.weights[at_target] == 1.0 / k)
    assert measure.weights[0] == 0.0


def test_blip_mass_concentrates_near_one():
    dim, k = 600, 2
    params = CheckerboardParams(dim=dim, k=k, w=1.0, seed=77)
    cfg = BlipConfig.for_dimension(dim, k)
    spectra = [eigensolve(sample_checkerboard(params, t)) for t in range(40)]
    masses = [blip_measure(s, k, cfg).total_mass for s in spectra]
    assert abs(np.mean(masses[:20]) - 1.0) < 0.05
    averaged = average_measures(blip_measure(s, k, cfg) for s in spectra)
    assert abs(averaged.total_mass - 1.0) < 0.02


def test_averaged_blip_single_matches_blip():
    params = CheckerboardParams(dim=12, k=2, w=1.0, seed=4)
    m = sample_checkerboard(params, 0)
    cfg = BlipConfig.for_dimension(12, 2)
    lone = blip_measure(eigensolve(m), 2, cfg)
    avg = average_measures([lone])
    assert np.allclose(avg.locations, lone.locations)
    assert np.allclose(avg.weights, lone.weights)


def test_averaged_blip_duplicates_keep_mass():
    params = CheckerboardParams(dim=12, k=2, w=1.0, seed=4)
    m = sample_checkerboard(params, 0)
    cfg = BlipConfig.for_dimension(12, 2)
    lone = blip_measure(eigensolve(m), 2, cfg)
    one = average_measures([lone])
    two = average_measures([lone, lone])
    assert two.locations.size == 2 * one.locations.size
    assert two.total_mass == pytest.approx(one.total_mass, rel=1e-12)


def test_average_measures_rejects_empty_input():
    with pytest.raises(ParameterError):
        average_measures([])


@pytest.mark.parametrize("algebra", ["real", "quaternion"])
def test_non_finite_spectrum_is_rejected(algebra):
    # the 2x2 matrix of 1e308 has eigenvalue 2e308 = inf; the trace (and, for
    # quaternions, the Kramers pair) check must fail on inf - inf = NaN
    matrix = sample_checkerboard(CheckerboardParams(dim=2, k=1, w=1e308, algebra=algebra), 0)
    with np.errstate(all="ignore"), pytest.raises(NumericalDegeneracyError):
        eigensolve(matrix)
    if algebra == "quaternion":  # the Kramers check alone: the solver core has no trace check
        with np.errstate(all="ignore"), pytest.raises(NumericalDegeneracyError):
            _eigenvalues(matrix.data[None], DivisionAlgebra.QUATERNION)


def test_kramers_check_names_the_worst_pair(monkeypatch):
    # an "embedding" with eigenvalues 0, 0.001, 5, 6: both pairs split, the second by far more relative to its scale;
    # the dummy grid's nonzero diagonal keeps it off the bipartite route, on the whole embedding's
    grid = np.diag([0.0, 1e-3, 5.0, 6.0]).astype(complex)
    monkeypatch.setattr(spectra, "embed_quaternion_blocks", lambda comps: grid)
    dummy = np.zeros((2, 2, 4))
    dummy[0, 0, 0] = 1.0
    with pytest.raises(NumericalDegeneracyError, match=r"worst pair \(5\.0, 6\.0\)$"):
        _eigenvalues(dummy, DivisionAlgebra.QUATERNION)


@pytest.mark.parametrize(
    "first_pair, small_split, worst",
    [((100.0, 105.0), 0.0, None), ((100.0, 120.0), 0.0, r"\(100\.0, 120\.0\)"),
     ((-3.0, 3.0), 0.0, r"\(-3\.0, 3\.0\)"), ((100.0, 105.0), 1e-3, r"\(0\.0, 0\.001\)")],
    ids=["within", "past-1e-8-of-max", "past-half-its-size", "per-matrix"],
)
def test_kramers_check_scales_by_each_matrix_spectrum(monkeypatch, first_pair, small_split, worst):
    # two "embeddings" solved as a stack, with eigenvalues first_pair, 1e9, 1e9 and 0, small_split, 5, 5: each pair
    # is held to 1e-8 of its own matrix's largest |eigenvalue|, 10 in the first and 5e-8 in the second, and to no
    # more than half its own size
    grids = np.stack([np.diag([*first_pair, 1e9, 1e9]), np.diag([0.0, small_split, 5.0, 5.0])])
    monkeypatch.setattr(spectra, "embed_quaternion_blocks", lambda comps: grids.astype(complex))
    if worst is None:
        assert _eigenvalues(np.zeros((2, 2, 2, 4)), DivisionAlgebra.QUATERNION).tolist() == [[100.0, 1e9], [0.0, 5.0]]
        return
    with pytest.raises(NumericalDegeneracyError, match=f"worst pair {worst}$"):
        _eigenvalues(np.zeros((2, 2, 2, 4)), DivisionAlgebra.QUATERNION)


def test_blip_shift_comes_from_the_spectrum():
    # a config made for N = 8, k = 2 carries only n; the two eigenvalues are shifted by their own N/k = 2/1
    cfg = BlipConfig.for_dimension(8, 2)
    assert blip_measure(Spectrum([0.0, 5.0]), 1, cfg).locations.tolist() == [-2.0, 3.0]
    for k in (0, 3):
        with pytest.raises(ParameterError, match=f"need 1 <= k <= dim, got k={k}, dim=2"):
            blip_measure(Spectrum([0.0, 5.0]), k, cfg)


def test_histogram_single_atom():
    table = histogram(AtomicMeasure(np.array([0.0]), np.array([1.0])), 1)
    width = table.bin_hi[0] - table.bin_lo[0]
    assert table.density[0] == pytest.approx(1.0 / width)


def test_histogram_uniform_atoms():
    locs = np.linspace(0.0, 1.0, 1000, endpoint=False)
    table = histogram(AtomicMeasure(locs, np.full(1000, 1e-3)), 10, (0.0, 1.0))
    # atoms sitting exactly on bin edges round either way
    assert np.allclose(table.density, 1.0, atol=0.02)


def test_histogram_integrates_to_total_mass():
    rng = np.random.default_rng(8)
    measure = AtomicMeasure(rng.standard_normal(500), rng.random(500))
    table = histogram(measure, 37)
    integral = float(np.sum(table.density * (table.bin_hi - table.bin_lo)))
    assert integral == pytest.approx(measure.total_mass, rel=1e-9)


@pytest.mark.parametrize("uniform", [False, True])
def test_histogram_blocks_equal_one_numpy_call(uniform, monkeypatch):
    # four blocks of atoms, the last one ragged, some atoms outside the range
    rng = np.random.default_rng(3)
    n = 3 * spectra._HISTOGRAM_BLOCK + 1_000
    locations = 3.0 * rng.standard_normal(n)
    weights = np.full(n, 1.0 / n) if uniform else rng.random(n)
    blocked = histogram(AtomicMeasure(locations, np.broadcast_to(1.0 / n, n) if uniform else weights), 37, (-4.0, 5.0))
    monkeypatch.setattr(spectra, "_HISTOGRAM_BLOCK", n)  # one np.histogram call over every atom
    whole = histogram(AtomicMeasure(locations, weights), 37, (-4.0, 5.0))
    assert blocked.bin_edges.tobytes() == whole.bin_edges.tobytes()
    assert blocked.density.tobytes() == whole.density.tobytes()


def test_histogram_rejects_bad_range():
    with pytest.raises(ParameterError):
        histogram(AtomicMeasure(np.array([0.0]), np.array([1.0])), 4, (1.0, 1.0))


def test_histogram_default_range_ignores_negligible_atoms():
    measure = AtomicMeasure(np.array([0.0, 1.0, 1000.0]), np.array([0.5, 0.5, 1e-9]))
    table = histogram(measure, 4)
    assert table.bin_hi[-1] < 2.0
    # rescaling keeps the integral equal to the full mass, tiny atom included
    integral = float(np.sum(table.density * (table.bin_hi - table.bin_lo)))
    assert integral == pytest.approx(measure.total_mass, rel=1e-9)


def test_histogram_default_range_spans_a_measure_of_negligible_atoms():
    # bulk --trials 2600 at N = 400 pools 1,040,000 atoms of equal weight, each below 1e-6 of the mass
    n = 1_040_000
    locations = np.random.default_rng(9).standard_normal(n)
    measure = AtomicMeasure(locations, np.full(n, 1.0 / n))
    assert not np.any(measure.weights > 1e-6 * measure.total_mass)
    table = histogram(measure, 16)
    assert table.bin_lo[0] < locations.min() and locations.max() < table.bin_hi[-1]
    integral = float(np.sum(table.density * (table.bin_hi - table.bin_lo)))
    assert integral == pytest.approx(measure.total_mass, rel=1e-9)


def test_full_spectrum_histogram_shows_both_regimes():
    # scaled eigenvalues of a striped sample: semicircle-like mass near 0 plus a
    # far spike near sqrt(N)/k
    dim, k, trials = 100, 2, 50
    params = CheckerboardParams(dim=dim, k=k, w=1.0, seed=30)
    measures = [bulk_measure(eigensolve(sample_checkerboard(params, t))) for t in range(trials)]
    pooled = AtomicMeasure(
        np.concatenate([m.locations for m in measures]),
        np.concatenate([m.weights for m in measures]) / trials,
    )
    table = histogram(pooled, 60)
    centers = 0.5 * (table.bin_lo + table.bin_hi)
    radius = 2 * math.sqrt(1 - 1 / k)
    bulk_mass = float(np.sum((table.density * (table.bin_hi - table.bin_lo))[np.abs(centers) <= radius + 0.3]))
    spike_mass = float(np.sum((table.density * (table.bin_hi - table.bin_lo))[np.abs(centers - math.sqrt(dim) / k) < 0.5]))
    assert bulk_mass == pytest.approx((dim - k) / dim, abs=0.01)
    assert spike_mass == pytest.approx(k / dim, abs=0.01)


def test_default_parameters():
    assert default_blip_half_degree(600) == 25
    assert default_blip_half_degree(4) == 2
    assert default_average_count(600) == 8
    assert default_average_count(100_000) == 18
