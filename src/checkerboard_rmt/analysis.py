"""Statistical verification: regime splitting, perturbation bounds, and probes.

Checkerboard matrices split into a bulk of N-k eigenvalues of order sqrt(N)
and k outliers near N*w/k.  The probes here measure that split, the Weyl
perturbation bound underlying it, the growth/decay laws of bulk moments, and
the distributional match between centered blip samples and hollow Gaussian
ensembles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import DivisionAlgebra, HermitianMatrix
from .ensembles import CheckerboardParams, HollowParams, sample_hollow_batch
from .exceptions import AlgebraMismatchError, DimensionError, ParameterError, RegimeOverlapError, StatisticalPowerWarning
from .moments import measure_moments
from .spectra import (
    AtomicMeasure,
    BlipConfig,
    Spectrum,
    batch_eigenvalues,
    blip_measure,
    bulk_measure,
    eigensolve,
    trial_spectra,
)

__all__ = [
    "RegimeSplit",
    "WeylResult",
    "GrowthReport",
    "DecayReport",
    "ComparisonReport",
    "FluctuationReport",
    "split_regimes",
    "weyl_check",
    "bulk_divergence_probe",
    "variance_decay_probe",
    "compare_blip_to_hollow",
    "blip_moment_fluctuation_probe",
    "weighted_ks_statistic",
]


@dataclass(frozen=True)
class RegimeSplit:
    """Partition of a spectrum into bulk values and outliers near the target."""

    blip_eigenvalues: np.ndarray
    bulk_eigenvalues: np.ndarray
    threshold: float
    target: float


def split_regimes(spectrum: Spectrum, k: int, w: float, exponent: float = 0.65) -> RegimeSplit:
    """Classify eigenvalues: |x| < N^exponent is bulk, |x - N*w/k| < N^exponent is blip.

    Raises RegimeOverlapError when any eigenvalue matches both windows or
    neither, which signals that N is too small for the chosen exponent.
    """
    if not 0.5 < exponent < 1.0:
        raise ParameterError(f"exponent must lie in (0.5, 1), got {exponent}")
    n = spectrum.source_dimension
    threshold = float(n) ** exponent
    target = n * w / k
    lam = spectrum.eigenvalues
    in_blip = np.abs(lam - target) < threshold
    in_bulk = np.abs(lam) < threshold
    both = in_blip & in_bulk
    neither = ~(in_blip | in_bulk)
    if np.any(both) or np.any(neither):
        offenders = np.concatenate([lam[both], lam[neither]])
        raise RegimeOverlapError(
            f"{both.sum()} eigenvalue(s) fit both regimes and {neither.sum()} fit neither "
            f"(threshold {threshold:.3f}, target {target:.3f}); offenders: {offenders[:8]}"
        )
    return RegimeSplit(lam[in_blip], lam[in_bulk], threshold, target)


@dataclass(frozen=True)
class WeylResult:
    """Outcome of the eigenvalue perturbation bound |l_j(H+P) - l_j(H)| <= ||P||_op."""

    passed: bool
    max_deviation: float
    operator_norm: float


def weyl_check(h: HermitianMatrix, p: HermitianMatrix, tol: float = 1e-8) -> WeylResult:
    """Verify the perturbation bound for one pair; max_deviation is the worst slack."""
    if h.algebra is not p.algebra:
        raise AlgebraMismatchError(f"algebra mismatch: {h.algebra.value} vs {p.algebra.value}")
    if h.dim != p.dim:
        raise DimensionError(f"dimension mismatch: {h.dim} vs {p.dim}")
    lam_h = eigensolve(h).eigenvalues
    lam_p = eigensolve(p).eigenvalues
    lam_sum = eigensolve(HermitianMatrix(h.data + p.data, h.algebra)).eigenvalues
    op_norm = float(np.abs(lam_p).max()) if lam_p.size else 0.0
    max_deviation = float((np.abs(lam_sum - lam_h) - op_norm).max())
    return WeylResult(max_deviation <= tol, max_deviation, op_norm)


def _fit_loglog(sizes: np.ndarray, values: np.ndarray) -> tuple:
    """OLS slope of log(values) against log(sizes) with its standard error."""
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    if dof > 0:
        se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    else:
        se = float("nan")
    return float(slope), se


def _size_samples(k: int, sizes: tuple, trials: int, seed: int, w: float, statistic) -> list:
    """Per size, the array of statistic(spectrum) over its own block of trials.

    The size at position idx draws trials idx*trials .. (idx+1)*trials - 1 of
    the real checkerboard ensemble (dim, k, w, seed).
    """
    samples = []
    for idx, dim in enumerate(sizes):
        params = CheckerboardParams(dim=dim, k=k, w=w, seed=seed)
        spectra = trial_spectra(params, range(idx * trials, (idx + 1) * trials))
        samples.append(np.array([statistic(s) for s in spectra]))
    return samples


def _bulk_moment(ell: int):
    return lambda spectrum: measure_moments(bulk_measure(spectrum), ell)[ell]


@dataclass(frozen=True)
class GrowthReport:
    """Growth of bulk moments with N, with a fitted log-log slope."""

    k: int
    ell: int
    w: float
    sizes: tuple
    estimates: tuple
    stderrs: tuple
    trials: int
    slope: float
    slope_ci: tuple


def bulk_divergence_probe(
    k: int, ell: int, sizes, trials: int = 30, seed: int = 0, w: float = 1.0
) -> GrowthReport:
    """Estimate the ell-th bulk moment across sizes and fit its log-log growth.

    With the constant stripe present (w != 0) the even moments of order >= 4
    grow like N^(ell/2 - 1); with w = 0 they converge instead.
    """
    if ell < 4 or ell % 2:
        raise ParameterError(f"divergence shows only for even ell >= 4, got ell={ell}")
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2:
        raise ParameterError("need at least two sizes to fit a slope")
    estimates, stderrs = [], []
    for samples in _size_samples(k, sizes, trials, seed, w, _bulk_moment(ell)):
        estimates.append(float(samples.mean()))
        stderrs.append(float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else float("nan"))
    slope, se = _fit_loglog(np.array(sizes), np.array(estimates))
    ci = (slope - 1.96 * se, slope + 1.96 * se)
    return GrowthReport(k, ell, w, sizes, tuple(estimates), tuple(stderrs), trials, slope, ci)


@dataclass(frozen=True)
class DecayReport:
    """Decay of the variance of a bulk moment with N."""

    k: int
    ell: int
    sizes: tuple
    variances: tuple
    means: tuple
    trials: int
    slope: float


def variance_decay_probe(k: int, ell: int, sizes, trials: int, seed: int = 0) -> DecayReport:
    """Sample variance of the ell-th bulk moment at each size (w = 0 ensemble).

    The variance decays like 1/N^2; the fitted log-log slope should sit near -2
    and below -1.5 once Monte Carlo noise is accounted for.
    """
    if ell < 0:
        raise ParameterError(f"need ell >= 0, got {ell}")
    if trials < 20:
        warnings.warn(
            f"{trials} trials give little power for a variance estimate; use >= 20",
            StatisticalPowerWarning,
            stacklevel=2,
        )
    sizes = tuple(int(s) for s in sizes)
    variances, means = [], []
    for samples in _size_samples(k, sizes, trials, seed, 0.0, _bulk_moment(ell)):
        variances.append(float(samples.var(ddof=1)) if trials > 1 else 0.0)
        means.append(float(samples.mean()))
    if all(v > 0 for v in variances) and len(sizes) >= 2:
        slope, _ = _fit_loglog(np.array(sizes), np.array(variances))
    else:
        slope = float("nan")
    return DecayReport(k, ell, sizes, tuple(variances), tuple(means), trials, slope)


def weighted_ks_statistic(loc1, w1, loc2, w2) -> float:
    """Two-sample Kolmogorov-Smirnov distance between weighted atom samples.

    Each sample is normalized to unit mass before building its CDF.
    """
    loc1, w1 = np.asarray(loc1, float), np.asarray(w1, float)
    loc2, w2 = np.asarray(loc2, float), np.asarray(w2, float)
    if loc1.size == 0 or loc2.size == 0:
        raise ParameterError("need nonempty samples for a KS statistic")

    def cdf(loc, wts, grid):
        order = np.argsort(loc, kind="stable")
        loc, wts = loc[order], wts[order]
        cum = np.cumsum(wts)
        cum /= cum[-1]
        idx = np.searchsorted(loc, grid, side="right")
        return np.where(idx > 0, cum[np.minimum(idx, len(cum)) - 1], 0.0)

    grid = np.concatenate([loc1, loc2])
    grid.sort(kind="stable")
    return float(np.abs(cdf(loc1, w1, grid) - cdf(loc2, w2, grid)).max())


@dataclass(frozen=True)
class ComparisonReport:
    """Moment and KS distances between a blip sample and a hollow-ensemble sample."""

    moment_distances: dict
    ks_statistic: float
    sample_sizes: tuple
    blip_moments: dict
    hollow_moments: dict

    def to_dict(self) -> dict:
        return {
            "moment_distances": {str(m): v for m, v in self.moment_distances.items()},
            "ks_statistic": self.ks_statistic,
            "sample_sizes": list(self.sample_sizes),
            "blip_moments": {str(m): v for m, v in self.blip_moments.items()},
            "hollow_moments": {str(m): v for m, v in self.hollow_moments.items()},
        }


def compare_blip_to_hollow(
    blip_sample: AtomicMeasure,
    k: int,
    algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL,
    hollow_trials: int = 5000,
    seed: int = 0,
    max_m: int = 6,
) -> ComparisonReport:
    """Compare a centered weighted blip sample against fresh hollow-ensemble draws.

    The blip atoms must already be centered (shifted by the mean k - 1).  Both
    samples are normalized to unit mass; distances are per-order absolute
    moment differences for m <= max_m plus a weighted two-sample KS statistic.
    """
    algebra = DivisionAlgebra.parse(algebra)
    if blip_sample.locations.size == 0:
        raise ParameterError("empty blip sample")
    if hollow_trials < 1:
        raise ParameterError(f"need hollow_trials >= 1, got {hollow_trials}")
    mass = blip_sample.total_mass
    if mass <= 0:
        raise ParameterError("blip sample has zero mass")
    blip = AtomicMeasure(blip_sample.locations, blip_sample.weights / mass)

    eigs = batch_eigenvalues(sample_hollow_batch(HollowParams(k, algebra, seed), hollow_trials), algebra)
    hollow = AtomicMeasure(eigs.ravel(), np.full(eigs.size, 1.0 / eigs.size))

    blip_m = measure_moments(blip, max_m)
    hollow_m = measure_moments(hollow, max_m)
    distances = {m: abs(blip_m[m] - hollow_m[m]) for m in range(1, max_m + 1)}
    ks = weighted_ks_statistic(blip.locations, blip.weights, hollow.locations, hollow.weights)
    return ComparisonReport(
        distances,
        ks,
        (blip.locations.size, eigs.size),
        {m: blip_m[m] for m in range(max_m + 1)},
        {m: hollow_m[m] for m in range(max_m + 1)},
    )


@dataclass(frozen=True)
class FluctuationReport:
    """r-th central sample moments of a blip moment across matrix sizes."""

    k: int
    m: int
    r: int
    sizes: tuple
    central_moments: tuple
    trials: int


def blip_moment_fluctuation_probe(k: int, m: int, sizes, trials: int, r: int = 2, seed: int = 0) -> FluctuationReport:
    """Spot-check that per-matrix blip moments stay bounded as N grows.

    Returns the r-th central sample moment of the m-th blip moment at each size.
    """
    if r < 1 or trials < 2:
        raise ParameterError(f"need r >= 1 and trials >= 2, got r={r}, trials={trials}")
    sizes = tuple(int(s) for s in sizes)

    def blip_moment(spectrum: Spectrum) -> float:
        cfg = BlipConfig.for_dimension(spectrum.source_dimension, k)
        return measure_moments(blip_measure(spectrum, k, cfg), m)[m]

    outcomes = [float(np.mean((s - s.mean()) ** r)) for s in _size_samples(k, sizes, trials, seed, 1.0, blip_moment)]
    return FluctuationReport(k, m, r, sizes, tuple(outcomes), trials)
