"""Eigensolution and the empirical spectral measures.

Every sampled spectrum comes from `trial_spectra` (trial t of an ensemble,
drawn and solved on the trial pool), and every eigenvalue from one solver
core shared by `eigensolve` and `batch_eigenvalues`.  Three measures are
built from a spectrum: the bulk measure (eigenvalues scaled by 1/sqrt(N),
uniform weights), the blip measure (eigenvalues shifted by N/k and weighted
by a steep polynomial that is ~1 near the k outlier eigenvalues and ~0 on
the bulk), and the mean of such measures over several independent matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map
from .algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from .ensembles import CheckerboardParams, sample_checkerboard
from .exceptions import EigensolveError, NumericalDegeneracyError, ParameterError

__all__ = [
    "Spectrum",
    "AtomicMeasure",
    "BlipConfig",
    "HistogramTable",
    "default_blip_half_degree",
    "default_average_count",
    "eigensolve",
    "batch_eigenvalues",
    "trial_spectra",
    "bulk_measure",
    "blip_weight",
    "blip_measure",
    "average_measures",
    "histogram",
    "default_blip_range",
]

_KRAMERS_RTOL = 1e-8
_TRACE_RTOL = 1e-8
_BATCH_CHUNK = 4096  # matrices per pool task in batch_eigenvalues


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalues of a self-adjoint matrix."""

    eigenvalues: np.ndarray
    source_dimension: int

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        if vals.ndim != 1 or vals.size != self.source_dimension:
            raise ParameterError(f"expected {self.source_dimension} eigenvalues, got shape {vals.shape}")
        if vals.size > 1 and np.any(np.diff(vals) < 0):
            raise ParameterError("eigenvalues must be sorted ascending")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite measure given by point masses: (location, weight) atoms."""

    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "weights", wts)
        if loc.shape != wts.shape or loc.ndim != 1:
            raise ParameterError(f"locations and weights must be matching 1-d arrays, got {loc.shape} and {wts.shape}")
        if wts.size and float(wts.min()) < 0.0:
            raise ParameterError("atom weights must be nonnegative")

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())


def default_blip_half_degree(dim: int) -> int:
    """Default half-degree n of the blip weight polynomial: ceil(sqrt(N))."""
    return max(1, math.isqrt(dim - 1) + 1) if dim > 1 else 1


def default_average_count(dim: int) -> int:
    """Default number of matrices averaged in a blip experiment."""
    return max(8, math.ceil(dim ** 0.25))


@dataclass(frozen=True)
class BlipConfig:
    """Parameters of the blip measure for one matrix dimension."""

    n: int
    shift: float

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"weight half-degree must be >= 1, got {self.n}")

    @classmethod
    def for_dimension(cls, dim: int, k: int, n: "int | None" = None) -> "BlipConfig":
        if not 1 <= k <= dim:
            raise ParameterError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
        return cls(n=n if n is not None else default_blip_half_degree(dim), shift=dim / k)

    def check_dimension(self, dim: int, k: int) -> None:
        if self.shift != dim / k:
            raise ParameterError(f"blip config shift {self.shift} inconsistent with dim/k = {dim / k}")


def _eigenvalues(grid: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint grid, or of each grid in a stack.

    Quaternion grids are diagonalized through their complex embedding; the
    doubled eigenvalue pairs are checked (relative 1e-8) and collapsed.
    """
    quaternion = algebra is DivisionAlgebra.QUATERNION
    try:
        vals = np.linalg.eigvalsh(embed_quaternion_blocks(grid) if quaternion else grid)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigendecomposition failed for a {algebra.value} grid of shape {grid.shape}: {exc}") from exc
    if not quaternion:
        return vals
    first, second = vals[..., 0::2], vals[..., 1::2]
    scale = np.maximum(1.0, np.maximum(np.abs(first), np.abs(second)))
    bad = ~(np.abs(first - second) <= _KRAMERS_RTOL * scale)  # NaN and inf pairs are bad too
    if np.any(bad):
        raise NumericalDegeneracyError(
            "embedded spectrum is not doubled to relative 1e-8; worst pair "
            f"({first[bad][0]}, {second[bad][0]})"
        )
    return first


def eigensolve(matrix: HermitianMatrix) -> Spectrum:
    """Eigenvalues of a self-adjoint matrix, ascending, checked against its trace."""
    vals = _eigenvalues(matrix.data, matrix.algebra)
    total = vals.sum()
    trace = matrix.trace()
    # written so that a NaN or inf spectrum fails the check too
    if not (abs(total - trace) <= _TRACE_RTOL * max(1.0, abs(trace), float(np.abs(vals).sum()))):
        raise NumericalDegeneracyError(
            f"eigenvalue sum {total} disagrees with trace {trace} (dim={matrix.dim}, algebra={matrix.algebra.value})"
        )
    return Spectrum(vals, matrix.dim)


def batch_eigenvalues(batch: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """Eigenvalues of a stack of self-adjoint grids, shape (trials, k).

    Chunks of the stack are solved on the trial pool. Every matrix is solved
    on its own, so the result does not depend on the split or the workers.
    """
    algebra = DivisionAlgebra.parse(algebra)
    parts = np.array_split(batch, max(1, math.ceil(len(batch) / _BATCH_CHUNK)))
    return np.concatenate(parallel_map(lambda part: _eigenvalues(part, algebra), parts))


def trial_spectra(params: CheckerboardParams, trials: range) -> list:
    """Spectra of the given trial indices of an ensemble, in order, drawn and solved on the trial pool.

    Trial t is `eigensolve(sample_checkerboard(params, t))`; its random
    stream depends only on t, so the result does not depend on the workers.
    """
    return parallel_map(lambda t: eigensolve(sample_checkerboard(params, t)), trials)


def bulk_measure(spectrum: Spectrum) -> AtomicMeasure:
    """Unit-mass measure with an atom of weight 1/N at each eigenvalue / sqrt(N)."""
    n = spectrum.source_dimension
    if n < 1:
        raise ParameterError("empty spectrum")
    return AtomicMeasure(spectrum.eigenvalues / math.sqrt(n), np.full(n, 1.0 / n))


def blip_weight(x, n: int):
    """The window polynomial x^(2n) * (x-2)^(2n).

    Evaluated as exp(2n * (log|x| + log|x - 2|)) so that large n neither
    overflows at the window plateau nor traps spurious values on the bulk:
    underflow flushes to exactly 0, and the roots x = 0, 2 give exactly 0.
    """
    if n < 1:
        raise ParameterError(f"weight half-degree must be >= 1, got {n}")
    arr = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        logs = np.log(np.abs(arr)) + np.log(np.abs(arr - 2.0))
        out = np.exp(2.0 * n * logs)
    return out if arr.ndim else float(out)


def blip_measure(spectrum: Spectrum, k: int, cfg: BlipConfig) -> AtomicMeasure:
    """Measure with one atom per eigenvalue at lambda - N/k, weighted by the window.

    Bulk eigenvalues receive weight ~0, the k outliers ~1/k each, so the total
    mass is close to (but not exactly) 1.
    """
    n_dim = spectrum.source_dimension
    cfg.check_dimension(n_dim, k)
    lam = spectrum.eigenvalues
    weights = blip_weight(k * lam / n_dim, cfg.n) / k
    return AtomicMeasure(lam - cfg.shift, weights)


def average_measures(measures) -> AtomicMeasure:
    """Arithmetic mean of atomic measures: every atom kept, each weight divided by the count."""
    measures = list(measures)
    if not measures:
        raise ParameterError("need at least one measure to average")
    return AtomicMeasure(
        np.concatenate([m.locations for m in measures]),
        np.concatenate([m.weights for m in measures]) / len(measures),
    )


@dataclass(frozen=True)
class HistogramTable:
    """Binned density table; integrates to the total mass of its source measure."""

    bin_edges: np.ndarray
    density: np.ndarray

    @property
    def bin_lo(self) -> np.ndarray:
        return self.bin_edges[:-1]

    @property
    def bin_hi(self) -> np.ndarray:
        return self.bin_edges[1:]


def default_blip_range(k: int) -> tuple[float, float]:
    """Plot window covering the blip fluctuations around their mean k - 1."""
    spread = 6.0 * math.sqrt(max(k - 1, 1))
    return (-(k - 1) - spread, (k - 1) + spread)


def histogram(measure: AtomicMeasure, bins: int, value_range: "tuple[float, float] | None" = None) -> HistogramTable:
    """Accumulate atom weights into equal-width bins, rescaled to total mass.

    The default range spans the atoms carrying more than 1e-6 of the total
    mass, padded by 5%.
    """
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    total = measure.total_mass
    if value_range is None:
        keep = measure.weights > 1e-6 * total
        if not np.any(keep):
            keep = np.ones_like(measure.weights, dtype=bool)
        lo = float(measure.locations[keep].min())
        hi = float(measure.locations[keep].max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
        value_range = (lo - pad, hi + pad)
    lo, hi = float(value_range[0]), float(value_range[1])
    if lo >= hi:
        raise ParameterError(f"empty histogram range [{lo}, {hi})")
    counts, edges = np.histogram(measure.locations, bins=bins, range=(lo, hi), weights=measure.weights)
    included = counts.sum()
    width = np.diff(edges)
    density = counts / width
    if included > 0.0:
        density = density * (total / included)
    return HistogramTable(edges, density)
