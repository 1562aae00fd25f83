"""Eigensolution, the bulk and blip measures, and their averages."""

import math

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix, complex_embed
from checkerboard_rmt.ensembles import (
    CheckerboardParams,
    HollowParams,
    congruence_indicator_matrix,
    sample_checkerboard,
    sample_hollow_batch,
)
from checkerboard_rmt.exceptions import EigensolveError, NumericalDegeneracyError, ParameterError
from checkerboard_rmt.spectra import (
    AtomicMeasure,
    BlipConfig,
    Spectrum,
    average_measures,
    batch_eigenvalues,
    blip_measure,
    blip_weight,
    bulk_measure,
    default_average_count,
    default_blip_half_degree,
    eigensolve,
    histogram,
    trial_spectra,
)

from helpers import random_hermitian


def test_identity_spectrum():
    spectrum = eigensolve(HermitianMatrix(np.eye(5)))
    assert np.allclose(spectrum.eigenvalues, np.ones(5))


def test_two_by_two_offdiagonal_spectrum():
    b = 1.7
    spectrum = eigensolve(HermitianMatrix(np.array([[0.0, b], [b, 0.0]])))
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
    doubled = np.linalg.eigvalsh(complex_embed(m).data)
    assert np.allclose(direct, doubled[0::2], rtol=1e-8)
    assert np.allclose(direct, doubled[1::2], rtol=1e-8)


@pytest.mark.parametrize("algebra", ["real", "complex"])
def test_batch_eigenvalues_chunks_match_one_solve(algebra):
    # 9000 matrices: three chunks on the trial pool, in order, each matrix solved on its own
    batch = sample_hollow_batch(HollowParams(k=3, algebra=algebra, seed=4), 9000)
    assert np.array_equal(batch_eigenvalues(batch, algebra), np.linalg.eigvalsh(batch))


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


@pytest.mark.parametrize("algebra", ["real", "quaternion"])
def test_failed_eigendecomposition_is_an_eigensolve_error(algebra, monkeypatch):
    def fail(grid):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    batch = sample_hollow_batch(HollowParams(k=3, algebra=algebra, seed=4), 10)
    matrix = sample_checkerboard(CheckerboardParams(dim=6, k=2, algebra=algebra), 0)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(EigensolveError, match="did not converge"):
        batch_eigenvalues(batch, algebra)
    with pytest.raises(EigensolveError, match="did not converge"):
        eigensolve(matrix)


def test_bulk_measure_atoms():
    single = bulk_measure(Spectrum(np.zeros(1), 1))
    assert single.locations.tolist() == [0.0] and single.weights.tolist() == [1.0]
    pair = bulk_measure(Spectrum(np.array([-2.0, 2.0]), 2))
    assert np.allclose(pair.locations, [-math.sqrt(2), math.sqrt(2)])
    assert np.allclose(pair.weights, [0.5, 0.5])
    assert pair.total_mass == 1.0


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
    spectrum = Spectrum(np.array([0.0, 1.0, 3.0, 3.5, 3.9, 4.0, 4.0, 4.0]), dim)
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


def test_averaged_blip_rejects_mixed_dimensions():
    cfg = BlipConfig.for_dimension(8, 2)
    a = sample_checkerboard(CheckerboardParams(dim=8, k=2, seed=0), 0)
    b = sample_checkerboard(CheckerboardParams(dim=10, k=2, seed=0), 0)
    with pytest.raises(ParameterError):
        average_measures([blip_measure(eigensolve(m), 2, cfg) for m in (a, b)])


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
    if algebra == "quaternion":  # the Kramers check alone: batch_eigenvalues has no trace check
        with np.errstate(all="ignore"), pytest.raises(NumericalDegeneracyError):
            batch_eigenvalues(matrix.data[None], algebra)


def test_blip_config_dimension_check():
    cfg = BlipConfig.for_dimension(8, 2)
    with pytest.raises(ParameterError):
        blip_measure(Spectrum(np.zeros(10), 10), 2, cfg)


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
