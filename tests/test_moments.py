"""Moment machinery: empirical moments, closed forms, and the exact oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix
from checkerboard_rmt.ensembles import CheckerboardParams, congruence_indicator_matrix, sample_checkerboard
from checkerboard_rmt.exceptions import EnumerationBudgetError, ParameterError
from checkerboard_rmt.moments import (
    _exact_power_traces,
    alternating_binomial_sum,
    average_trial_moments,
    blip_limit_moment,
    catalan,
    hollow_moment_oracle,
    measure_moments,
    monte_carlo_hollow_moment,
    semicircle_moment,
    trace_expansion_blip_moment,
)
from checkerboard_rmt.spectra import AtomicMeasure, BlipConfig, blip_measure, eigensolve

ALGEBRAS = ("real", "complex", "quaternion")


def test_single_atom_moments():
    mv = measure_moments(AtomicMeasure(np.array([3.0]), np.array([1.0])), 4)
    assert mv.values.tolist() == [1.0, 3.0, 9.0, 27.0, 81.0]


def test_symmetric_atoms_moments():
    mv = measure_moments(AtomicMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5])), 6)
    assert np.allclose(mv.values[1::2], 0.0)
    assert np.allclose(mv.values[0::2], 1.0)


def test_moment_cap_enforced():
    with pytest.raises(ParameterError):
        measure_moments(AtomicMeasure(np.array([1.0]), np.array([1.0])), 33)


def test_average_trial_moments_attaches_stderr():
    measures = [AtomicMeasure(np.array([float(v)]), np.array([1.0])) for v in (1, 2, 3, 4)]
    mv = average_trial_moments(measures, 1)
    assert mv.values[1] == pytest.approx(2.5)
    assert mv.standard_errors is not None
    expected = np.std([1, 2, 3, 4], ddof=1) / 2.0
    assert mv.standard_errors[1] == pytest.approx(expected)


def test_semicircle_moment_values():
    assert semicircle_moment(2, 2) == Fraction(1, 2)
    assert semicircle_moment(4, 2) == Fraction(1, 2)
    assert semicircle_moment(6, 2) == Fraction(5, 8)
    assert semicircle_moment(5, 3) == 0
    assert semicircle_moment(0, 7) == 1


def test_semicircle_moment_approaches_catalan():
    # the rational factor ((k-1)/k)^(l/2) climbs to 1 as k grows
    ell = 6
    ratios = [semicircle_moment(ell, k) / catalan(ell // 2) for k in (2, 10, 100, 10**6)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == Fraction(10**6 - 1, 10**6) ** 3


def test_alternating_binomial_sum_table():
    for m in range(13):
        for p in range(m):
            assert alternating_binomial_sum(m, p) == 0, (m, p)
        assert alternating_binomial_sum(m, m) == (-1) ** m * math.factorial(m)
    assert alternating_binomial_sum(0, 0) == 1
    assert alternating_binomial_sum(3, 1) == 0
    assert alternating_binomial_sum(3, 3) == -6


def test_alternating_binomial_sum_bounds():
    with pytest.raises(ParameterError):
        alternating_binomial_sum(3, 4)
    with pytest.raises(ParameterError):
        alternating_binomial_sum(65, 2)


def test_oracle_second_moment_closed_form():
    for k in range(2, 7):
        for algebra in ALGEBRAS:
            assert hollow_moment_oracle(k, 2, algebra).exact == k - 1, (k, algebra)


def test_oracle_odd_moments_vanish():
    for k in range(1, 6):
        for m in range(1, 10, 2):
            assert hollow_moment_oracle(k, m).exact == 0
            assert hollow_moment_oracle(k, m, "complex").exact == 0
            assert hollow_moment_oracle(k, m, "quaternion").exact == 0


def test_oracle_odd_orders_past_the_budget_are_zero():
    # (2k)^m walks far past the budget, but an odd order is 0 without a walk
    for k, m, algebra in ((4, 9, "quaternion"), (12, 9, "real"), (2, 41, "real"), (9, 99, "complex")):
        result = hollow_moment_oracle(k, m, algebra)
        assert result.exact == 0 and result.value == 0.0, (k, m, algebra)


def test_oracle_gaussian_values_at_k2():
    # the 2x2 hollow ensemble has eigenvalues +/-|b|, so real moments are Gaussian, (m-1)!!,
    # complex |b|^2 is a unit exponential, so E|b|^m = (m/2)!, and quaternion |b|^2 is a
    # Gamma(2, 1/2) variable, so E|b|^m = (m/2 + 1)! / 2^(m/2)
    for m in range(2, 27, 2):
        assert hollow_moment_oracle(2, m).exact == math.prod(range(m - 1, 0, -2)), m
        assert hollow_moment_oracle(2, m, "complex").exact == math.factorial(m // 2), m
    for m in range(2, 13, 2):
        assert hollow_moment_oracle(2, m, "quaternion").exact == Fraction(math.factorial(m // 2 + 1), 2 ** (m // 2)), m


def test_oracle_fourth_moment_closed_forms():
    for k in range(2, 8):
        assert hollow_moment_oracle(k, 4).exact == (k - 1) * (2 * k - 1), k
        assert hollow_moment_oracle(k, 4, "complex").exact == 2 * (k - 1) ** 2, k
        assert hollow_moment_oracle(k, 4, "quaternion").exact == Fraction((k - 1) * (4 * k - 5), 2), k


def test_oracle_three_by_three_fourth_moment():
    assert hollow_moment_oracle(3, 4).exact == 10
    # frozen values, each checked against a brute-force sum over all k^m index walks
    assert hollow_moment_oracle(3, 6).exact == 74
    assert hollow_moment_oracle(4, 8).exact == 2589
    assert hollow_moment_oracle(7, 8).exact == 27930
    assert hollow_moment_oracle(3, 8, "complex").exact == 272
    # quaternion: frozen values, each equal to an independent brute-force Wick sum
    pins = {
        (3, 4): 7, (4, 4): Fraction(33, 2), (5, 4): 30, (6, 4): Fraction(95, 2),
        (3, 6): 29, (4, 6): 108, (5, 6): 270, (6, 6): 545,
        (3, 8): 138, (4, 8): Fraction(1569, 2), (5, 8): 2676,
        (2, 10): Fraction(45, 2), (3, 10): Fraction(1485, 2),
    }
    for (k, m), expected in pins.items():
        assert hollow_moment_oracle(k, m, "quaternion").exact == expected, (k, m)


def test_oracle_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        hollow_moment_oracle(12, 10)
    with pytest.raises(EnumerationBudgetError, match="hollow command or monte_carlo_hollow_moment"):
        hollow_moment_oracle(2, 14, "quaternion")  # 4^14 walks on the 4 x 4 embedding
    assert hollow_moment_oracle(2, 12, "quaternion").exact == Fraction(5040, 64)


def test_oracle_quaternion_is_exact():
    assert hollow_moment_oracle(2, 4, "quaternion").exact == Fraction(3, 2)


def test_oracle_against_monte_carlo():
    for algebra in ALGEBRAS:
        for k in (2, 3, 4):
            for m in (2, 4, 6):
                exact = hollow_moment_oracle(k, m, algebra).value
                mean, stderr = monte_carlo_hollow_moment(k, m, algebra, trials=10_000, seed=100 * k + m)
                assert abs(mean - exact) <= 4 * stderr, (algebra, k, m, mean, exact, stderr)


def test_gaussian_domination_bound():
    for k in range(2, 5):
        for m in range(1, 5):
            bound = k ** (2 * m) * math.prod(range(1, 2 * m, 2))
            assert hollow_moment_oracle(k, 2 * m).exact <= bound


def test_blip_limit_moments():
    for k in (2, 3, 4, 5):
        assert blip_limit_moment(k, 1, centered=False) == pytest.approx(k - 1)
        assert blip_limit_moment(k, 2, centered=True) == pytest.approx(k - 1)
    assert blip_limit_moment(2, 2) == pytest.approx(1.0)
    assert blip_limit_moment(2, 4) == pytest.approx(3.0)
    assert blip_limit_moment(2, 4, "complex") == pytest.approx(2.0)
    assert blip_limit_moment(2, 4, "quaternion") == 1.5


def test_trace_expansion_mass_term():
    params = CheckerboardParams(dim=6, k=2, w=1.0, seed=13)
    m = sample_checkerboard(params, 0)
    cfg = BlipConfig.for_dimension(6, 2, n=1)
    mass = blip_measure(eigensolve(m), 2, cfg).total_mass
    assert trace_expansion_blip_moment(m, 2, cfg, 0) == pytest.approx(mass, rel=1e-12)


def test_trace_expansion_vanishes_on_indicator():
    # every nonzero eigenvalue of the indicator matrix sits exactly at N/k
    z = congruence_indicator_matrix(4, 2, 1.0)
    cfg = BlipConfig.for_dimension(4, 2, n=1)
    assert trace_expansion_blip_moment(z, 2, cfg, 1) == 0.0


@pytest.mark.parametrize("algebra", list(DivisionAlgebra))
def test_trace_expansion_matches_direct_moment(algebra):
    params = CheckerboardParams(dim=8, k=2, w=1.0, algebra=algebra, seed=29)
    cfg = BlipConfig.for_dimension(8, 2, n=2)
    for trial in range(4):
        matrix = sample_checkerboard(params, trial)
        direct = measure_moments(blip_measure(eigensolve(matrix), 2, cfg), 2)
        for m in (0, 1, 2):
            expansion = trace_expansion_blip_moment(matrix, 2, cfg, m)
            assert abs(expansion - direct[m]) <= 1e-9 * max(1.0, abs(direct[m]))


@pytest.mark.parametrize("algebra", list(DivisionAlgebra))
def test_exact_power_traces_scale_dyadically(algebra):
    # congruence by diag(2^a) spreads the entries over 2^-60 .. 2^20
    a = np.array([-30, -20, -10, 0, 10])
    scale = np.ldexp(1.0, np.add.outer(a, a))
    data = sample_checkerboard(CheckerboardParams(dim=5, k=2, w=1.0, algebra=algebra, seed=41), 0).data
    data = data * (scale[..., None] if algebra is DivisionAlgebra.QUATERNION else scale)
    exponents = np.frexp(np.abs(data[data != 0]))[1]
    assert exponents.max() - exponents.min() >= 40
    traces = _exact_power_traces(HermitianMatrix(data, algebra), 8)
    # tr A^2 of a self-adjoint matrix is the sum of its squared entry norms
    components = data.view(float) if algebra is DivisionAlgebra.COMPLEX else data
    assert traces[2] == sum(Fraction(float(x)) ** 2 for x in components.ravel())
    s = 17
    scaled = _exact_power_traces(HermitianMatrix(data * 2.0**s, algebra), 8)
    assert traces[0] == scaled[0] == 5
    for p in range(1, 9):
        assert scaled[p] == 2 ** (s * p) * traces[p], p


def test_trace_expansion_rejects_large_inputs():
    params = CheckerboardParams(dim=20, k=2, w=1.0, seed=1)
    m = sample_checkerboard(params, 0)
    cfg = BlipConfig.for_dimension(20, 2, n=2)
    with pytest.raises(ParameterError):
        trace_expansion_blip_moment(m, 2, cfg, 2)
