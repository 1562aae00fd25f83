"""Regime splitting, the perturbation bound, the bulk size sweep and the blip comparison."""

import numpy as np
import pytest

import checkerboard_rmt.analysis as analysis
from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix
from checkerboard_rmt.analysis import bulk_moment_sweep, compare_blip_to_hollow, split_regimes, weighted_ks_statistic
from checkerboard_rmt.ensembles import CheckerboardParams, HollowParams, congruence_indicator_matrix, sample_checkerboard
from checkerboard_rmt.exceptions import ParameterError, RegimeOverlapError, StatisticalPowerWarning
from checkerboard_rmt.moments import measure_moments
from checkerboard_rmt.spectra import (
    AtomicMeasure,
    BlipConfig,
    Spectrum,
    blip_measure,
    bulk_measure,
    eigensolve,
    hollow_eigenvalues,
    trial_spectra,
)

from helpers import random_hermitian, weyl_check


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


@pytest.mark.parametrize("k", [0, 5])
def test_split_refuses_k_outside_one_to_n(k):
    with pytest.raises(ParameterError, match=f"need 1 <= k <= dim, got k={k}, dim=4"):
        split_regimes(Spectrum(np.arange(4.0)), k, 1.0)


def test_weyl_zero_perturbation():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 6, DivisionAlgebra.REAL)
    zero = HermitianMatrix(np.zeros((6, 6)), "real")
    result = weyl_check(h, zero)
    assert result.passed
    assert result.max_deviation == pytest.approx(0.0, abs=1e-10)


def test_weyl_zero_base():
    rng = np.random.default_rng(1)
    p = random_hermitian(rng, 6, DivisionAlgebra.COMPLEX)
    zero = HermitianMatrix(np.zeros((6, 6)), "complex")
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
        weyl_check(HermitianMatrix(np.eye(3), "real"), HermitianMatrix(np.eye(4), "real"))


def test_divergence_probe_with_stripe():
    report = bulk_moment_sweep(2, 4, [64, 128, 256], 30, 1.0, seed=0)
    assert 0.6 <= report.mean_slope <= 1.4
    assert report.means[0] < report.means[-1]
    assert 0.0 < report.mean_slope_se < 0.1


def test_divergence_probe_without_stripe_flat():
    report = bulk_moment_sweep(2, 4, [64, 128, 256], 30, 0.0, seed=0)
    assert abs(report.mean_slope) < 0.2


def test_variance_decay_slope():
    report = bulk_moment_sweep(2, 2, [64, 128], 60, 0.0, seed=0)
    assert report.variance_slope < -1.0
    assert np.isnan(report.mean_slope_se)  # two sizes leave no residual


def test_variance_decay_zero_order_is_deterministic():
    report = bulk_moment_sweep(2, 0, [32, 64], 25, 0.0, seed=0)
    assert report.variances == (0.0, 0.0)
    assert report.means == (1.0, 1.0)
    assert np.isnan(report.variance_slope)  # a zero variance has no logarithm, and no warning is raised
    assert report.mean_slope == pytest.approx(0.0, abs=1e-12)


def test_sweep_slope_of_an_odd_moment_is_nan():
    report = bulk_moment_sweep(2, 3, [16, 24, 32], 20, 0.0, seed=1)
    assert min(report.means) < 0.0
    assert np.isnan(report.mean_slope) and np.isnan(report.mean_slope_se)


def test_variance_decay_warns_on_few_trials():
    with pytest.warns(StatisticalPowerWarning):
        bulk_moment_sweep(2, 2, [32, 48], 8, 0.0, seed=0)


def test_ks_identical_samples_zero():
    rng = np.random.default_rng(3)
    loc = rng.standard_normal(50)
    wts = rng.random(50)
    assert weighted_ks_statistic(loc, wts, loc, wts) == 0.0


def test_ks_disjoint_samples_one():
    assert weighted_ks_statistic([0.0, 1.0], [0.5, 0.5], [10.0], [1.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("w1", [[0.0, 0.0], [-0.5, 1.5], [1.0], []], ids=["zero-total", "negative", "short", "empty"])
def test_ks_refuses_weights_without_a_distribution(w1):
    with pytest.raises(ParameterError, match="KS weights must match"):
        weighted_ks_statistic([0.0, 1.0], w1, [0.5], [1.0])
    with pytest.raises(ParameterError, match="KS weights must match"):
        weighted_ks_statistic([0.5], [1.0], [0.0, 1.0], w1)


def test_compare_rejects_empty():
    with pytest.raises(ParameterError):
        compare_blip_to_hollow(AtomicMeasure(np.array([]), np.array([])), hollow_eigenvalues(HollowParams(2), 5000))


def test_compare_hollow_sample_against_itself_distribution():
    # two independent hollow samples should be statistically indistinguishable
    eigs = hollow_eigenvalues(HollowParams(2, seed=5), 4000)
    sample = AtomicMeasure(eigs.ravel(), np.full(eigs.size, 1.0 / eigs.size))
    report = compare_blip_to_hollow(sample, hollow_eigenvalues(HollowParams(2, seed=6), 4000))
    assert report.moment_distances[1] < 0.1
    assert report.moment_distances[2] < 0.1
    assert report.ks_statistic < 0.05


def test_compare_real_blip_to_hollow():
    report = compare_blip_to_hollow(_centered_blip_sample(4, 600, 40), hollow_eigenvalues(HollowParams(2, seed=0), 5000))
    assert report.moment_distances[2] < 0.15
    assert report.moment_distances[4] < 0.6
    assert report.sample_sizes == (600 * 40, 2 * 5000)


def test_compare_distances_shrink_with_dimension():
    distances = []
    hollow = hollow_eigenvalues(HollowParams(2, seed=52), 4000)
    for dim in (200, 400, 600):
        report = compare_blip_to_hollow(_centered_blip_sample(2, dim, 32), hollow)
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
    # the spread of the per-matrix second blip moment does not grow with N;
    # size idx draws trials idx*30 .. (idx+1)*30 - 1
    trials, values = 30, []
    for idx, dim in enumerate((200, 400, 600)):
        cfg = BlipConfig.for_dimension(dim, 2)
        spectra = trial_spectra(CheckerboardParams(dim=dim, k=2, w=1.0, seed=6), range(idx * trials, (idx + 1) * trials))
        m2 = np.array([measure_moments(blip_measure(s, 2, cfg), 2)[2] for s in spectra])
        values.append(float(np.mean((m2 - m2.mean()) ** 2)))
    values = np.array(values)
    assert np.all(values > 0.0)
    assert values.max() <= 4.0 * values.min()


def test_probes_equal_serial_trial_blocks():
    sizes, trials = (16, 24, 30), 20
    report = bulk_moment_sweep(2, 4, sizes, trials, 1.5, seed=5)
    expected = []
    for idx, dim in enumerate(sizes):
        params = CheckerboardParams(dim=dim, k=2, w=1.5, seed=5)
        matrices = (sample_checkerboard(params, t) for t in range(idx * trials, (idx + 1) * trials))
        expected.append(np.array([measure_moments(bulk_measure(eigensolve(m)), 4)[4] for m in matrices]))
    assert report.means == tuple(float(s.mean()) for s in expected)
    assert report.stderrs == tuple(float(s.std(ddof=1) / np.sqrt(trials)) for s in expected)
    assert report.variances == tuple(float(s.var(ddof=1)) for s in expected)
    assert report.mean_slope == pytest.approx(np.polyfit(np.log(sizes), np.log(report.means), 1)[0], rel=1e-12)
    assert report.variance_slope == pytest.approx(np.polyfit(np.log(sizes), np.log(report.variances), 1)[0], rel=1e-12)


@pytest.mark.parametrize(
    "probe, message",
    [
        (lambda: bulk_moment_sweep(2, 40, (16, 24), 30, 1.0), "moment order cap is 32, got 40"),
        (lambda: bulk_moment_sweep(2, 40, (16, 24), 20, 0.0), "moment order cap is 32, got 40"),
        (
            lambda: compare_blip_to_hollow(AtomicMeasure(np.array([0.0]), np.array([1.0])), np.zeros((1, 2)), max_m=40),
            "moment order cap is 32, got 40",
        ),
        (lambda: bulk_moment_sweep(2, 4, [32], 30, 1.0), "two distinct sizes"),
        (lambda: bulk_moment_sweep(2, 4, [32, 32, 32], 30, 1.0), "two distinct sizes"),
        (lambda: bulk_moment_sweep(2, 4, [32, 64], 1, 1.0), "two trials"),
        (lambda: bulk_moment_sweep(3, 4, [300, 2], 30, 1.0), "need 1 <= k <= dim, got k=3, dim=2"),
    ],
    ids=["bulk-divergence", "variance-decay", "compare", "one-size", "repeated-size", "one-trial", "size-below-k"],
)
def test_probes_refuse_a_bad_order_before_drawing(probe, message, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew before refusing the input")

    monkeypatch.setattr(analysis, "trial_spectra", no_draw)
    with pytest.raises(ParameterError, match=message):
        probe()
