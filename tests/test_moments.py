"""Moment machinery: empirical moments, closed forms, and the exact oracles."""

import itertools
import math
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from checkerboard_rmt.ensembles import CheckerboardParams, HollowParams, congruence_indicator_matrix, sample_checkerboard
from checkerboard_rmt.exceptions import EnumerationBudgetError, ParameterError
from checkerboard_rmt.moments import (
    ENUMERATION_BUDGET,
    _exact_power_traces,
    _trial_mean,
    alternating_binomial_sum,
    average_trial_moments,
    catalan,
    hollow_moment_oracle,
    hollow_moments,
    measure_moments,
    semicircle_moment,
    trace_expansion_blip_moments,
)
from checkerboard_rmt.spectra import AtomicMeasure, BlipConfig, blip_measure, eigensolve, hollow_eigenvalues

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
            assert hollow_moment_oracle(k, 2, algebra) == k - 1, (k, algebra)


def test_oracle_odd_moments_vanish():
    for k in range(1, 6):
        for m in range(1, 10, 2):
            assert hollow_moment_oracle(k, m) == 0
            assert hollow_moment_oracle(k, m, "complex") == 0
            assert hollow_moment_oracle(k, m, "quaternion") == 0


def test_oracle_odd_orders_past_the_budget_are_zero():
    # (2k)^m walks far past the budget, but an odd order is 0 without a walk
    for k, m, algebra in ((4, 9, "quaternion"), (12, 9, "real"), (2, 41, "real"), (9, 99, "complex")):
        result = hollow_moment_oracle(k, m, algebra)
        assert result == 0 and float(result) == 0.0, (k, m, algebra)


def test_oracle_gaussian_values_at_k2():
    # the 2x2 hollow ensemble has eigenvalues +/-|b|, so real moments are Gaussian, (m-1)!!,
    # complex |b|^2 is a unit exponential, so E|b|^m = (m/2)!, and quaternion |b|^2 is a
    # Gamma(2, 1/2) variable, so E|b|^m = (m/2 + 1)! / 2^(m/2)
    for m in range(2, 27, 2):
        assert hollow_moment_oracle(2, m) == math.prod(range(m - 1, 0, -2)), m
        assert hollow_moment_oracle(2, m, "complex") == math.factorial(m // 2), m
    for m in range(2, 13, 2):
        assert hollow_moment_oracle(2, m, "quaternion") == Fraction(math.factorial(m // 2 + 1), 2 ** (m // 2)), m


def test_oracle_fourth_moment_closed_forms():
    for k in range(2, 8):
        assert hollow_moment_oracle(k, 4) == (k - 1) * (2 * k - 1), k
        assert hollow_moment_oracle(k, 4, "complex") == 2 * (k - 1) ** 2, k
        assert hollow_moment_oracle(k, 4, "quaternion") == Fraction((k - 1) * (4 * k - 5), 2), k


def test_oracle_three_by_three_fourth_moment():
    assert hollow_moment_oracle(3, 4) == 10
    # frozen values, each checked against a brute-force sum over all k^m index walks
    assert hollow_moment_oracle(3, 6) == 74
    assert hollow_moment_oracle(4, 8) == 2589
    assert hollow_moment_oracle(7, 8) == 27930
    assert hollow_moment_oracle(3, 8, "complex") == 272
    # quaternion: frozen values, each equal to an independent brute-force Wick sum
    pins = {
        (3, 4): 7, (4, 4): Fraction(33, 2), (5, 4): 30, (6, 4): Fraction(95, 2),
        (3, 6): 29, (4, 6): 108, (5, 6): 270, (6, 6): 545,
        (3, 8): 138, (4, 8): Fraction(1569, 2), (5, 8): 2676,
        (2, 10): Fraction(45, 2), (3, 10): Fraction(1485, 2),
    }
    for (k, m), expected in pins.items():
        assert hollow_moment_oracle(k, m, "quaternion") == expected, (k, m)


def test_oracle_budget_guard():
    with pytest.raises(EnumerationBudgetError):
        hollow_moment_oracle(12, 10)
    with pytest.raises(EnumerationBudgetError, match="hollow command or hollow_moments"):
        hollow_moment_oracle(2, 14, "quaternion")  # 4^14 walks on the 4 x 4 embedding
    assert hollow_moment_oracle(2, 12, "quaternion") == Fraction(5040, 64)


def test_oracle_closed_forms_at_large_k_on_the_budget_edge():
    # k^m (or (2k)^m) walks equal the budget: the walker's state holds only the min(k, m)
    # labels a walk can reach, so a large k costs no more than a small one
    assert ENUMERATION_BUDGET == 10**8
    for algebra, k in (("real", 10_000), ("complex", 10_000), ("quaternion", 5_000)):
        assert hollow_moment_oracle(k, 2, algebra) == k - 1, algebra
    assert hollow_moment_oracle(100, 4) == 99 * 199
    assert hollow_moment_oracle(100, 4, "complex") == 2 * 99**2
    assert hollow_moment_oracle(50, 4, "quaternion") == Fraction(49 * 195, 2)


def test_oracle_quaternion_is_exact():
    assert hollow_moment_oracle(2, 4, "quaternion") == Fraction(3, 2)


def test_oracle_against_monte_carlo():
    for algebra in ALGEBRAS:
        for k in (2, 3, 4):
            for m in (2, 4, 6):
                exact = float(hollow_moment_oracle(k, m, algebra))
                sampled = hollow_moments(hollow_eigenvalues(HollowParams(k, algebra, 100 * k + m), 10_000), m)
                mean, stderr = sampled[m], sampled.standard_errors[m]
                assert abs(mean - exact) <= 4 * stderr, (algebra, k, m, mean, exact, stderr)


def test_hollow_moments_average_the_trace_powers():
    eigs = np.random.default_rng(8).standard_normal((5, 3))
    mv = hollow_moments(eigs, 4)
    per_trial = np.array([[np.sum(row**m) / 3 for m in range(5)] for row in eigs])
    assert np.allclose(mv.values, per_trial.mean(axis=0), rtol=1e-14)
    assert np.allclose(mv.standard_errors, per_trial.std(axis=0, ddof=1) / math.sqrt(5), rtol=1e-12)
    assert hollow_moments(eigs[:1], 4).standard_errors is None
    with pytest.raises(ParameterError, match="trials must be positive, got 0"):
        hollow_moments(eigs[:0], 4)
    with pytest.raises(ParameterError, match="moment order cap"):
        hollow_moments(eigs, 33)


@pytest.mark.parametrize("columns", [1, 7])
@pytest.mark.parametrize("rows", [1, 2, 1_024, 1_025, 70_000])
def test_trial_mean_has_the_bits_of_numpy(rows, columns):
    table = np.random.default_rng(rows).standard_normal((rows, columns)) * 10.0 ** np.arange(-3, columns - 3)
    mv = _trial_mean(table)
    assert mv.values.tobytes() == table.mean(axis=0).tobytes()
    if rows == 1:
        assert mv.standard_errors is None
    else:
        assert mv.standard_errors.tobytes() == (table.std(axis=0, ddof=1) / math.sqrt(rows)).tobytes()


def test_hollow_moments_hold_one_table(monkeypatch):
    # the per-chunk traces go into one shared (trials, max_m + 1) table, which tracemalloc does not see, and
    # the standard errors make no copy of it: no table-sized array is made on the heap
    monkeypatch.setenv("CHECKERBOARD_THREADS", "1")
    eigs = hollow_eigenvalues(HollowParams(4, seed=7), 200_000)
    tracemalloc.start()
    try:
        mv = hollow_moments(eigs, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mv.values.shape == (7,)
    assert peak < 0.25 * 200_000 * 7 * 8


def test_gaussian_domination_bound():
    for k in range(2, 5):
        for m in range(1, 5):
            bound = k ** (2 * m) * math.prod(range(1, 2 * m, 2))
            assert hollow_moment_oracle(k, 2 * m) <= bound


def test_blip_limit_moments():
    for k in (2, 3, 4, 5):
        assert float(hollow_moment_oracle(k, 2)) == pytest.approx(k - 1)
    assert float(hollow_moment_oracle(2, 2)) == pytest.approx(1.0)
    assert float(hollow_moment_oracle(2, 4)) == pytest.approx(3.0)
    assert float(hollow_moment_oracle(2, 4, "complex")) == pytest.approx(2.0)
    assert float(hollow_moment_oracle(2, 4, "quaternion")) == 1.5


def test_trace_expansion_mass_term():
    params = CheckerboardParams(dim=6, k=2, w=1.0, seed=13)
    m = sample_checkerboard(params, 0)
    cfg = BlipConfig.for_dimension(6, 2, n=1)
    mass = blip_measure(eigensolve(m), 2, cfg).total_mass
    assert trace_expansion_blip_moments(m, 2, cfg, 0) == [pytest.approx(mass, rel=1e-12)]


def test_trace_expansion_vanishes_on_indicator():
    # every nonzero eigenvalue of the indicator matrix sits exactly at N/k
    z = congruence_indicator_matrix(4, 2, 1.0)
    cfg = BlipConfig.for_dimension(4, 2, n=1)
    assert trace_expansion_blip_moments(z, 2, cfg, 1)[1] == 0.0


@pytest.mark.parametrize("algebra", list(DivisionAlgebra))
def test_trace_expansion_matches_direct_moment(algebra):
    params = CheckerboardParams(dim=8, k=2, w=1.0, algebra=algebra, seed=29)
    cfg = BlipConfig.for_dimension(8, 2, n=2)
    for trial in range(4):
        matrix = sample_checkerboard(params, trial)
        direct = measure_moments(blip_measure(eigensolve(matrix), 2, cfg), 2)
        expansions = trace_expansion_blip_moments(matrix, 2, cfg, 2)
        assert len(expansions) == 3
        for m, expansion in enumerate(expansions):
            assert abs(expansion - direct[m]) <= 1e-9 * max(1.0, abs(direct[m]))


def _dyadic_spread(algebra):
    """A 5 x 5 checkerboard matrix, congruent by diag(2^a) so its entries spread over 2^-60 .. 2^20."""
    a = np.array([-30, -20, -10, 0, 10])
    scale = np.ldexp(1.0, np.add.outer(a, a))
    data = sample_checkerboard(CheckerboardParams(dim=5, k=2, w=1.0, algebra=algebra, seed=41), 0).data
    return data * (scale[..., None] if algebra is DivisionAlgebra.QUATERNION else scale)


@pytest.mark.parametrize("algebra", list(DivisionAlgebra))
def test_exact_power_traces_scale_dyadically(algebra):
    data = _dyadic_spread(algebra)
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
        trace_expansion_blip_moments(m, 2, cfg, 2)


def _power_chain_traces(matrix, max_power):
    """[tr A^0, ..., tr A^max_power] from the plain chain A, A^2, A^3, ... of Fraction matrices."""
    quaternion = matrix.algebra is DivisionAlgebra.QUATERNION
    grid = embed_quaternion_blocks(matrix.data) if quaternion else matrix.data
    re, im = (np.array([[Fraction(float(x)) for x in row] for row in part], dtype=object) for part in (grid.real, grid.imag))
    traces = [Fraction(matrix.dim)]
    power_re, power_im = re, im
    for p in range(1, max_power + 1):
        if p > 1:
            power_re, power_im = power_re @ re - power_im @ im, power_re @ im + power_im @ re
        assert sum(power_im.diagonal()) == 0  # a self-adjoint power has a real trace
        traces.append(sum(power_re.diagonal()) / (2 if quaternion else 1))
    return traces


@pytest.mark.parametrize("algebra", list(DivisionAlgebra))
@pytest.mark.parametrize("case", ["w=1", "w=0", "dyadic-spread"])
def test_exact_power_traces_match_a_power_chain(algebra, case):
    if case == "dyadic-spread":
        matrix = HermitianMatrix(_dyadic_spread(algebra), algebra)
    else:
        w = 1.0 if case == "w=1" else 0.0
        matrix = sample_checkerboard(CheckerboardParams(dim=6, k=3, w=w, algebra=algebra, seed=43), 0)
    assert _exact_power_traces(matrix, 12) == _power_chain_traces(matrix, 12)


def _brute_force_oracle(k, m, algebra):
    """(1/k) E tr B^m as a plain sum over all k^m index walks i_0 -> ... -> i_{m-1} -> i_0.

    A real walk scores the product over edges {i, j} of (c-1)!!, c the edge's
    reads (0 for odd c); a complex walk scores the product of f! over edges read
    f times low-to-high and f times high-to-low (0 if the two counts differ).
    A step i -> i reads the hollow diagonal and scores 0.
    """
    total = 0
    for walk in itertools.product(range(k), repeat=m):
        steps = list(zip(walk, walk[1:] + walk[:1]))
        if any(i == j for i, j in steps):
            continue
        if algebra == "real":
            reads = Counter((min(i, j), max(i, j)) for i, j in steps)
            total += math.prod(0 if c % 2 else math.prod(range(c - 1, 0, -2)) for c in reads.values())
        else:
            forward = Counter((i, j) for i, j in steps if i < j)
            backward = Counter((j, i) for i, j in steps if i > j)
            edges = forward.keys() | backward.keys()
            total += math.prod(math.factorial(forward[e]) if forward[e] == backward[e] else 0 for e in edges)
    return Fraction(total, k)


@pytest.mark.parametrize("algebra", ["real", "complex"])
def test_oracle_matches_a_brute_force_walk_sum(algebra):
    for k in range(1, 5):
        for m in range(1, 9):
            assert hollow_moment_oracle(k, m, algebra) == _brute_force_oracle(k, m, algebra), (k, m)


# every even order up to the enumeration budget's edge, k^m <= 10^8, at k = 3..7
_ORACLE_PINS = {
    "real": {
        3: (2, 10, 74, 726, 8910, 131706, 2282490, 45445590),
        4: (3, 21, 207, 2589, 39255, 701097),
        5: (4, 36, 444, 6756, 121644),
        6: (5, 55, 815, 14625, 305085),
        7: (6, 78, 1350, 27930),
    },
    "complex": {
        3: (2, 8, 42, 272, 2100, 18864, 193536, 2234880),
        4: (3, 18, 138, 1248, 12960, 152112),
        5: (4, 32, 324, 3792, 49800),
        6: (5, 50, 630, 9080, 144840),
        7: (6, 72, 1086, 18624),
    },
}


@pytest.mark.parametrize("algebra", ["real", "complex"])
def test_oracle_pins_up_to_the_budget_edge(algebra):
    for k, values in _ORACLE_PINS[algebra].items():
        for m, expected in zip(range(2, 2 * len(values) + 1, 2), values):
            assert hollow_moment_oracle(k, m, algebra) == expected, (k, m)
        past = 2 * len(values) + 2  # the first even order past the budget is refused, with the same text
        message = f"enumeration of {k**past} index walks exceeds the 100000000 budget; "
        with pytest.raises(EnumerationBudgetError, match=re.escape(message + "sample instead with the hollow command")):
            hollow_moment_oracle(k, past, algebra)
