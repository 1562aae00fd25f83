"""Regime splitting, the perturbation bound, and the statistical probes."""

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix
from checkerboard_rmt.analysis import (
    blip_moment_fluctuation_probe,
    bulk_divergence_probe,
    compare_blip_to_hollow,
    split_regimes,
    variance_decay_probe,
    weighted_ks_statistic,
    weyl_check,
)
from checkerboard_rmt.ensembles import CheckerboardParams, congruence_indicator_matrix, sample_checkerboard
from checkerboard_rmt.exceptions import ParameterError, RegimeOverlapError, StatisticalPowerWarning
from checkerboard_rmt.moments import measure_moments
from checkerboard_rmt.spectra import AtomicMeasure, BlipConfig, blip_measure, bulk_measure, eigensolve

from helpers import random_hermitian


def _centered_blip_sample(seed, dim, g, k=2, algebra="real"):
    params = CheckerboardParams(dim=dim, k=k, w=1.0, algebra=algebra, seed=seed)
    cfg = BlipConfig.for_dimension(dim, k)
    parts = [blip_measure(eigensolve(sample_checkerboard(params, t)), k, cfg) for t in range(g)]
    return AtomicMeasure(
        np.concatenate([p.locations for p in parts]) - (k - 1),
        np.concatenate([p.weights for p in parts]) / g,
    )


def test_split_indicator_matrix():
    spectrum = eigensolve(congruence_indicator_matrix(300, 3, 1.0))
    split = split_regimes(spectrum, 3, 1.0, 0.65)
    assert np.allclose(split.blip_eigenvalues, [100.0, 100.0, 100.0], atol=1e-9)
    assert split.bulk_eigenvalues.size == 297
    assert np.allclose(split.bulk_eigenvalues, 0.0, atol=1e-9)
    assert split.target == pytest.approx(100.0)


def test_split_sampled_checkerboards_clean():
    params = CheckerboardParams(dim=256, k=2, w=1.0, seed=311)
    for trial in range(20):
        split = split_regimes(eigensolve(sample_checkerboard(params, trial)), 2, 1.0, 0.65)
        assert split.blip_eigenvalues.size == 2
        assert split.bulk_eigenvalues.size == 254


def test_split_degenerate_overlap():
    # with k = N every eigenvalue sits in both windows
    spectrum = eigensolve(congruence_indicator_matrix(6, 6, 1.0))
    with pytest.raises(RegimeOverlapError):
        split_regimes(spectrum, 6, 1.0, 0.65)


def test_split_exponent_validation():
    spectrum = eigensolve(congruence_indicator_matrix(12, 3, 1.0))
    with pytest.raises(ParameterError):
        split_regimes(spectrum, 3, 1.0, 0.4)


def test_weyl_zero_perturbation():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 6, DivisionAlgebra.REAL)
    zero = HermitianMatrix(np.zeros((6, 6)))
    result = weyl_check(h, zero)
    assert result.passed
    assert result.max_deviation == pytest.approx(0.0, abs=1e-10)


def test_weyl_zero_base():
    rng = np.random.default_rng(1)
    p = random_hermitian(rng, 6, DivisionAlgebra.COMPLEX)
    zero = HermitianMatrix(np.zeros((6, 6), dtype=complex))
    result = weyl_check(zero, p)
    assert result.passed


def test_weyl_random_pairs_all_algebras():
    rng = np.random.default_rng(1234)
    for algebra in DivisionAlgebra:
        for dim in (8, 32):
            for _ in range(100):
                h = random_hermitian(rng, dim, algebra)
                p = random_hermitian(rng, dim, algebra)
                assert weyl_check(h, p).passed


def test_weyl_checkerboard_plus_indicator():
    # adding the stripe to a w=0 sample shifts eigenvalues by at most N*w/k
    dim, k = 64, 2
    z = congruence_indicator_matrix(dim, k, 1.0)
    params = CheckerboardParams(dim=dim, k=k, w=0.0, seed=88)
    for trial in range(50):
        h = sample_checkerboard(params, trial)
        result = weyl_check(h, z)
        assert result.passed
        assert result.operator_norm == pytest.approx(dim / k, abs=1e-9)


def test_weyl_dimension_mismatch():
    with pytest.raises(ParameterError):
        weyl_check(HermitianMatrix(np.eye(3)), HermitianMatrix(np.eye(4)))


def test_divergence_probe_with_stripe():
    report = bulk_divergence_probe(2, 4, [64, 128, 256], trials=30, seed=0)
    assert 0.6 <= report.slope <= 1.4
    assert report.estimates[0] < report.estimates[-1]


def test_divergence_probe_without_stripe_flat():
    report = bulk_divergence_probe(2, 4, [64, 128, 256], trials=30, seed=0, w=0.0)
    assert abs(report.slope) < 0.2


def test_divergence_probe_rejects_low_order():
    with pytest.raises(ParameterError):
        bulk_divergence_probe(2, 2, [64, 128])


def test_variance_decay_slope():
    report = variance_decay_probe(2, 2, [64, 128], trials=60, seed=0)
    assert report.slope < -1.0


def test_variance_decay_zero_order_is_deterministic():
    report = variance_decay_probe(2, 0, [32, 64], trials=25, seed=0)
    assert report.variances == (0.0, 0.0)


def test_variance_decay_warns_on_few_trials():
    with pytest.warns(StatisticalPowerWarning):
        variance_decay_probe(2, 2, [32], trials=8, seed=0)


def test_ks_identical_samples_zero():
    rng = np.random.default_rng(3)
    loc = rng.standard_normal(50)
    wts = rng.random(50)
    assert weighted_ks_statistic(loc, wts, loc, wts) == 0.0


def test_ks_disjoint_samples_one():
    assert weighted_ks_statistic([0.0, 1.0], [0.5, 0.5], [10.0], [1.0]) == pytest.approx(1.0)


def test_compare_rejects_empty():
    with pytest.raises(ParameterError):
        compare_blip_to_hollow(AtomicMeasure(np.array([]), np.array([])), 2)


def test_compare_hollow_sample_against_itself_distribution():
    # two independent hollow samples should be statistically indistinguishable
    from checkerboard_rmt.ensembles import HollowParams, sample_hollow_batch
    from checkerboard_rmt.spectra import batch_eigenvalues

    eigs = batch_eigenvalues(sample_hollow_batch(HollowParams(2, seed=5), 4000), DivisionAlgebra.REAL)
    sample = AtomicMeasure(eigs.ravel(), np.full(eigs.size, 1.0 / eigs.size))
    report = compare_blip_to_hollow(sample, 2, "real", hollow_trials=4000, seed=6)
    assert report.moment_distances[1] < 0.1
    assert report.moment_distances[2] < 0.1
    assert report.ks_statistic < 0.05


def test_compare_real_blip_to_hollow():
    report = compare_blip_to_hollow(_centered_blip_sample(4, 600, 40), 2, "real", hollow_trials=5000, seed=0)
    assert report.moment_distances[2] < 0.15
    assert report.moment_distances[4] < 0.6
    assert report.sample_sizes == (600 * 40, 2 * 5000)


def test_compare_distances_shrink_with_dimension():
    distances = []
    for dim in (200, 400, 600):
        report = compare_blip_to_hollow(
            _centered_blip_sample(2, dim, 32), 2, "real", hollow_trials=4000, seed=52
        )
        distances.append((report.moment_distances[2] + report.moment_distances[4]) / 2)
    slope = np.polyfit([200.0, 400.0, 600.0], distances, 1)[0]
    assert slope < 0.0


def test_uncentered_blip_mean_near_limit():
    # the uncentered mean converges to k - 1
    k, dim, g = 3, 600, 40
    params = CheckerboardParams(dim=dim, k=k, w=1.0, seed=14)
    cfg = BlipConfig.for_dimension(dim, k)
    parts = [blip_measure(eigensolve(sample_checkerboard(params, t)), k, cfg) for t in range(g)]
    total_weight = np.concatenate([p.weights for p in parts]) / g
    total_loc = np.concatenate([p.locations for p in parts])
    mean = float((total_loc * total_weight).sum())
    assert abs(mean - (k - 1)) < 0.3


def test_blip_moment_fluctuations_stay_bounded():
    report = blip_moment_fluctuation_probe(2, 2, [200, 400, 600], trials=30, r=2, seed=6)
    values = np.array(report.central_moments)
    assert np.all(values > 0.0)
    assert values.max() <= 4.0 * values.min()


def _serial_samples(k, sizes, trials, seed, w, statistic):
    """Per size at position idx, statistic over trials idx*trials .. (idx+1)*trials - 1, solved one by one."""
    samples = []
    for idx, dim in enumerate(sizes):
        params = CheckerboardParams(dim=dim, k=k, w=w, seed=seed)
        trial_range = range(idx * trials, (idx + 1) * trials)
        samples.append(np.array([statistic(eigensolve(sample_checkerboard(params, t))) for t in trial_range]))
    return samples


def test_probes_equal_serial_trial_blocks():
    sizes = (16, 24, 30)

    def bulk4(spectrum):
        return measure_moments(bulk_measure(spectrum), 4)[4]

    growth = bulk_divergence_probe(2, 4, sizes, trials=3, seed=5, w=1.5)
    expected = _serial_samples(2, sizes, 3, 5, 1.5, bulk4)
    assert growth.estimates == tuple(float(s.mean()) for s in expected)
    assert growth.stderrs == tuple(float(s.std(ddof=1) / np.sqrt(3)) for s in expected)

    decay = variance_decay_probe(2, 4, sizes, trials=20, seed=5)
    expected = _serial_samples(2, sizes, 20, 5, 0.0, bulk4)
    assert decay.variances == tuple(float(s.var(ddof=1)) for s in expected)
    assert decay.means == tuple(float(s.mean()) for s in expected)

    def blip2(spectrum):
        cfg = BlipConfig.for_dimension(spectrum.source_dimension, 2)
        return measure_moments(blip_measure(spectrum, 2, cfg), 2)[2]

    fluctuation = blip_moment_fluctuation_probe(2, 2, sizes, trials=4, r=3, seed=5)
    expected = _serial_samples(2, sizes, 4, 5, 1.0, blip2)
    assert fluctuation.central_moments == tuple(float(np.mean((s - s.mean()) ** 3)) for s in expected)
