"""Eigensolution and the empirical spectral measures.

Every sampled spectrum comes from `trial_spectra` (trial t of a checkerboard
ensemble) or `hollow_eigenvalues` (a hollow batch, a chunk at a time), both
drawn and solved on the trial pool into one shared array, and every
eigenvalue from one solver core shared by the two and by `eigensolve`.
Three measures are built from a spectrum: the bulk measure (eigenvalues
scaled by 1/sqrt(N), uniform weights), the blip measure (eigenvalues shifted
by N/k and weighted by a steep polynomial that is ~1 near the k outlier
eigenvalues and ~0 on the bulk), and the mean of such measures over several
independent matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._parallel import parallel_rows
from .algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from .ensembles import BATCH_CHUNK, CheckerboardParams, HollowParams, _check_modulus, sample_checkerboard, sample_hollow_chunk
from .exceptions import EigensolveError, NumericalDegeneracyError, ParameterError

__all__ = [
    "Spectrum",
    "AtomicMeasure",
    "BlipConfig",
    "HistogramTable",
    "default_blip_half_degree",
    "default_average_count",
    "eigensolve",
    "hollow_eigenvalues",
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
_HISTOGRAM_BLOCK = 65_536  # numpy's np.histogram block
# Block rows copied, and embedded, at a time into the two-stage buffer.  One quaternion N = 600 trial's peak RSS rose
# 27.1-27.4 MiB at 16, as one block row at a time did (27.2-27.6), and 29.4-29.6 at 64, past 2.6 times its components.
_UPPER_BLOCK = 16


@dataclass(frozen=True)
class Spectrum:
    """Sorted real eigenvalues of a self-adjoint matrix."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", vals)
        if vals.ndim != 1:
            raise ParameterError(f"expected a 1-d array of eigenvalues, got shape {vals.shape}")
        if vals.size > 1 and np.any(np.diff(vals) < 0):
            raise ParameterError("eigenvalues must be sorted ascending")

    @property
    def source_dimension(self) -> int:  # N: one eigenvalue per row of the matrix
        return self.eigenvalues.size


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
    """The blip weight's half-degree n; the shift N/k comes from the spectrum."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"weight half-degree must be >= 1, got {self.n}")

    @classmethod
    def for_dimension(cls, dim: int, k: int, n: "int | None" = None) -> "BlipConfig":
        _check_modulus(dim, k)
        return cls(n=n if n is not None else default_blip_half_degree(dim))


def _bipartite_block(data: np.ndarray) -> "np.ndarray | None":
    """`data[0::2, 1::2]` of a single grid of order N >= 2 whose same-parity blocks are exactly zero; else None.

    Sorted by parity, such a grid is [[0, B], [B*, 0]], with B this p x q
    block, p = ceil(N/2).  Its eigenvalues are exactly +-sigma(B) and |p - q|
    zeros (Jordan-Wielandt).  -0.0 counts as zero, NaN does not, and a
    nonzero first diagonal entry, as at every w != 0, rejects the grid
    before any block is scanned.
    """
    if len(data) < 2 or data[0, 0].any() or data[0::2, 0::2].any() or data[1::2, 1::2].any():
        return None
    return data[0::2, 1::2]


def _write_upper(data: np.ndarray, quaternion: bool, out: np.ndarray) -> None:
    """Copy the C-order upper triangle, diagonal included, of a grid or its embedding, `_UPPER_BLOCK` block rows at a time."""
    for start in range(0, len(data), _UPPER_BLOCK):
        block = data[start : start + _UPPER_BLOCK, start:]
        if quaternion:
            block = embed_quaternion_blocks(block)
        corner = 2 * start if quaternion else start  # block[0, 0] lands on out[corner, corner]
        for r, row in enumerate(block):
            out[corner + r, corner + r :] = row[r:]


def _eigenvalues(data: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint grid, or of each grid in a stack, given as `HermitianMatrix.data`.

    A quaternion grid is solved as its complex embedding, whose doubled
    eigenvalue pairs are checked and collapsed: each pair to 1e-8 of its own
    matrix's largest |eigenvalue| (at least 1), but to no more than half the
    pair's own size (at least 1).  A single grid that is exactly bipartite
    (`_bipartite_block`) is solved from the singular values of its
    off-diagonal block, a quaternion block's complex embedding, by LAPACK's
    `gesdd` through `np.linalg.svd`: -sigma descending, the zeros, then
    sigma ascending.  Any other single complex grid or embedding of order at
    least `TWO_STAGE_MIN_ORDER` goes to LAPACK's two-stage reduction where it
    is bound (`_lapack.eigvalsh_upper`), handed only its upper triangle
    (`_write_upper`).  numpy's `eigvalsh` solves everything else, a
    quaternion grid as its whole embedding.
    """
    quaternion = algebra is DivisionAlgebra.QUATERNION
    order = 2 * data.shape[-2] if quaternion else data.shape[-1]
    single = data.ndim == (3 if quaternion else 2)
    block = _bipartite_block(data) if single else None
    large = single and algebra is not DivisionAlgebra.REAL and order >= _lapack.TWO_STAGE_MIN_ORDER
    try:
        if block is not None:
            sigma = np.linalg.svd(embed_quaternion_blocks(block) if quaternion else block, compute_uv=False)
            # 0.0 - sigma, not -sigma: a zero singular value gives +0.0
            vals = np.concatenate((0.0 - sigma, np.zeros(order - 2 * len(sigma)), sigma[::-1]))
        elif large and _lapack.two_stage_routines() is not None:  # bound at the first large solve
            vals = _lapack.eigvalsh_upper(order, functools.partial(_write_upper, data, quaternion))
        else:
            vals = np.linalg.eigvalsh(embed_quaternion_blocks(data) if quaternion else data)
    except np.linalg.LinAlgError as exc:
        shape = (*data.shape[:-3], order, order) if quaternion else data.shape
        raise EigensolveError(f"eigendecomposition failed for a {algebra.value} grid of shape {shape}: {exc}") from exc
    if algebra is not DivisionAlgebra.QUATERNION:
        return vals
    first, second = vals[..., 0::2], vals[..., 1::2]
    # written so that a NaN or inf pair fails the check, without a warning first
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(first - second)
        # LAPACK's eigenvalues err by eps * ||A|| each, so a pair is held to its own matrix's largest |eigenvalue|; but
        # never past half its own size, where its copies are rounding of that eigenvalue and resolve no pair at all
        size = np.maximum(1.0, np.maximum(np.abs(first), np.abs(second)))
        tol = np.minimum(_KRAMERS_RTOL * np.maximum(1.0, np.abs(vals).max(axis=-1, keepdims=True)), size / 2)
        if np.all(gap <= tol):
            return first
        worst = np.unravel_index(np.argmax(gap / tol), gap.shape)  # the largest gap for its tolerance, or the first NaN
    raise NumericalDegeneracyError(
        f"embedded spectrum is not doubled to relative 1e-8; worst pair ({first[worst]}, {second[worst]})"
    )


def eigensolve(matrix: HermitianMatrix) -> Spectrum:
    """Eigenvalues of a self-adjoint matrix, ascending, checked against its trace."""
    vals = _eigenvalues(matrix.data, matrix.algebra)
    # written so that a NaN or inf spectrum or trace fails the check, without a warning first
    with np.errstate(over="ignore", invalid="ignore"):
        total = vals.sum()
        trace = matrix.trace()
        agree = abs(total - trace) <= _TRACE_RTOL * max(1.0, abs(trace), float(np.abs(vals).sum()))
    if not agree:
        raise NumericalDegeneracyError(
            f"eigenvalue sum {total} disagrees with trace {trace} (dim={matrix.dim}, algebra={matrix.algebra.value})"
        )
    return Spectrum(vals)


def hollow_eigenvalues(params: HollowParams, trials: int) -> np.ndarray:
    """Eigenvalues of the first `trials` matrices of a hollow batch, shape (trials, k).

    Each `sample_hollow_chunk` is drawn, assembled and solved as one item of
    the trial pool, which writes its rows of the shared result, so the batch
    never exists whole.  Every matrix is solved on its own, so the result
    does not depend on the workers.
    """

    def solve(start: int, stop: int) -> np.ndarray:
        return _eigenvalues(sample_hollow_chunk(params, start // BATCH_CHUNK, stop - start), params.algebra)

    return parallel_rows(trials, params.k, BATCH_CHUNK, solve)


def trial_spectra(params: CheckerboardParams, trials: range) -> list:
    """Spectra of the given trial indices of an ensemble, in order, drawn and solved on the trial pool.

    Trial t is `eigensolve(sample_checkerboard(params, t))`, written into a
    row of one shared (trials, N) array; its random stream depends only on
    t, so the result does not depend on the workers.
    """

    def solve(row: int, stop: int) -> np.ndarray:
        return eigensolve(sample_checkerboard(params, trials[row])).eigenvalues

    return [Spectrum(row) for row in parallel_rows(len(trials), params.dim, 1, solve)]


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
    _check_modulus(n_dim, k)
    lam = spectrum.eigenvalues
    weights = blip_weight(k * lam / n_dim, cfg.n) / k
    return AtomicMeasure(lam - n_dim / k, weights)


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


def _check_bins(bins: int) -> None:
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")


def histogram(measure: AtomicMeasure, bins: int, value_range: "tuple[float, float] | None" = None) -> HistogramTable:
    """Accumulate atom weights into equal-width bins, rescaled to total mass.

    The default range spans the atoms carrying more than 1e-6 of the total
    mass, padded by 5%.  The atoms are binned _HISTOGRAM_BLOCK at a time,
    numpy's own block, so every bin adds its weights in the order one
    `np.histogram` call does, and broadcast weights are never copied whole.
    """
    _check_bins(bins)
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
    locations, weights = measure.locations, measure.weights
    edges = np.histogram_bin_edges(locations[:0], bins, (lo, hi))
    counts = np.zeros(bins)
    for start in range(0, locations.size, _HISTOGRAM_BLOCK):
        stop = start + _HISTOGRAM_BLOCK
        counts += np.histogram(locations[start:stop], bins=bins, range=(lo, hi), weights=weights[start:stop])[0]
    included = counts.sum()
    width = np.diff(edges)
    density = counts / width
    if included > 0.0:
        density = density * (total / included)
    return HistogramTable(edges, density)
