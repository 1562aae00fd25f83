"""Statistical verification: regime splitting, the bulk size sweep, the blip comparison.

Checkerboard matrices split into a bulk of N-k eigenvalues of order sqrt(N)
and k outliers near N*w/k.  This module measures that split, the growth of
the bulk moments' means and the decay of their variances across N (one
sweep, `bulk_moment_sweep`), and the distributional match between centered
blip samples and hollow Gaussian ensembles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ensembles import CheckerboardParams, _check_modulus
from .exceptions import ParameterError, RegimeOverlapError, StatisticalPowerWarning
from .moments import _check_max_m, hollow_moments, measure_moments
from .spectra import AtomicMeasure, Spectrum, bulk_measure, trial_spectra

__all__ = [
    "RegimeSplit",
    "SweepReport",
    "ComparisonReport",
    "split_regimes",
    "bulk_moment_sweep",
    "compare_blip_to_hollow",
    "weighted_ks_statistic",
]


@dataclass(frozen=True)
class RegimeSplit:
    """Partition of a spectrum into bulk values and outliers near the target."""

    blip_eigenvalues: np.ndarray
    bulk_eigenvalues: np.ndarray
    target: float


def _check_exponent(exponent: float) -> None:
    if not 0.5 < exponent < 1.0:
        raise ParameterError(f"exponent must lie in (0.5, 1), got {exponent}")


def split_regimes(spectrum: Spectrum, k: int, w: float, exponent: float = 0.65) -> RegimeSplit:
    """Classify eigenvalues: |x| < N^exponent is bulk, |x - N*w/k| < N^exponent is blip.

    Refuses k outside 1..N.  Raises RegimeOverlapError when any eigenvalue
    matches both windows or neither, which signals that N is too small for
    the chosen exponent.
    """
    _check_exponent(exponent)
    n = spectrum.source_dimension
    _check_modulus(n, k)
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
    return RegimeSplit(lam[in_blip], lam[in_bulk], target)


def _fit_loglog(sizes: tuple, values: list) -> tuple:
    """OLS slope of log(values) against log(sizes) with its standard error; NaN unless every value is positive."""
    y = np.asarray(values, dtype=float)
    if not np.all(y > 0):
        return float("nan"), float("nan")
    x = np.log(np.asarray(sizes, dtype=float))
    y = np.log(y)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(x) - 2
    if dof > 0:
        se = math.sqrt(float(resid @ resid) / dof / float(((x - x.mean()) ** 2).sum()))
    else:
        se = float("nan")
    return float(slope), se


@dataclass(frozen=True)
class SweepReport:
    """The ell-th bulk moment across sizes: per-size statistics and log-log slopes."""

    means: tuple
    stderrs: tuple
    variances: tuple
    mean_slope: float
    mean_slope_se: float
    variance_slope: float


def bulk_moment_sweep(k: int, ell: int, sizes, trials: int, w: float, seed: int = 0) -> SweepReport:
    """Mean, standard error and sample variance of the ell-th bulk moment at each size.

    The size at position idx draws trials idx*trials .. (idx+1)*trials - 1 of
    the real checkerboard ensemble (dim, k, w, seed).  With the stripe
    (w != 0) the even means of order >= 4 grow like N^(ell/2 - 1); the
    variances decay like 1/N^2.  A slope is NaN unless every value it fits
    is positive; the means' slope has no standard error (NaN) from two sizes.
    """
    _check_max_m(ell)  # every refusal comes before anything is drawn
    sizes = tuple(int(s) for s in sizes)
    if len(set(sizes)) < 2:
        raise ParameterError(f"need at least two distinct sizes to fit a slope, got {sizes}")
    if trials < 2:
        raise ParameterError(f"need at least two trials per size for a variance, got {trials}")
    params = [CheckerboardParams(dim=dim, k=k, w=w, seed=seed) for dim in sizes]
    if trials < 20:
        warnings.warn(
            f"{trials} trials give little power for a variance estimate; use >= 20",
            StatisticalPowerWarning,
            stacklevel=2,
        )
    means, stderrs, variances = [], [], []
    for idx, size_params in enumerate(params):
        spectra = trial_spectra(size_params, range(idx * trials, (idx + 1) * trials))
        samples = np.array([measure_moments(bulk_measure(s), ell)[ell] for s in spectra])
        means.append(float(samples.mean()))
        stderrs.append(float(samples.std(ddof=1) / math.sqrt(trials)))
        variances.append(float(samples.var(ddof=1)))
    mean_slope, mean_slope_se = _fit_loglog(sizes, means)
    variance_slope, _ = _fit_loglog(sizes, variances)
    return SweepReport(tuple(means), tuple(stderrs), tuple(variances), mean_slope, mean_slope_se, variance_slope)


def weighted_ks_statistic(loc1, w1, loc2, w2) -> float:
    """Two-sample Kolmogorov-Smirnov distance between weighted atom samples.

    Each sample is normalized to unit mass before building its CDF, so it
    needs one nonnegative weight per location and a positive total.
    """
    loc1, w1 = np.asarray(loc1, float), np.asarray(w1, float)
    loc2, w2 = np.asarray(loc2, float), np.asarray(w2, float)
    if loc1.size == 0 or loc2.size == 0:
        raise ParameterError("need nonempty samples for a KS statistic")
    for loc, wts in ((loc1, w1), (loc2, w2)):
        if wts.shape != loc.shape or not (wts.min() >= 0 and wts.sum() > 0):
            raise ParameterError("KS weights must match their locations, be nonnegative and have a positive total")

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


def compare_blip_to_hollow(blip_sample: AtomicMeasure, hollow_eigs: np.ndarray, max_m: int = 6) -> ComparisonReport:
    """Compare a centered weighted blip sample against a hollow-ensemble sample.

    The blip atoms must already be centered (shifted by the mean k - 1) and
    are normalized to unit mass.  `hollow_eigs` has one row of k eigenvalues
    per trial, as `hollow_eigenvalues` returns them; its moments are
    `hollow_moments`, and its atoms weigh the same.  Distances are per-order
    absolute moment differences for m <= max_m plus a weighted two-sample KS
    statistic.
    """
    if blip_sample.locations.size == 0:
        raise ParameterError("empty blip sample")
    mass = blip_sample.total_mass
    if mass <= 0:
        raise ParameterError("blip sample has zero mass")
    blip = AtomicMeasure(blip_sample.locations, blip_sample.weights / mass)
    blip_m = measure_moments(blip, max_m)
    hollow_m = hollow_moments(hollow_eigs, max_m)
    distances = {m: abs(blip_m[m] - hollow_m[m]) for m in range(1, max_m + 1)}
    atoms = hollow_eigs.ravel()
    ks = weighted_ks_statistic(blip.locations, blip.weights, atoms, np.broadcast_to(1.0, atoms.size))
    return ComparisonReport(
        distances,
        ks,
        (blip.locations.size, atoms.size),
        {m: blip_m[m] for m in range(max_m + 1)},
        {m: hollow_m[m] for m in range(max_m + 1)},
    )
