"""Samplers for checkerboard and hollow Gaussian ensembles.

A checkerboard matrix of dimension N with modulus k holds the constant w at
every position with i congruent to j mod k (0-based indices, so the whole
diagonal), and self-adjoint random entries everywhere else.  Hollow Gaussian
matrices are the classical GOE/GUE/GSE with the diagonal forced to zero.

Randomness comes from counter-based Philox streams keyed on
(master seed, domain, trial or chunk index), so every trial is reproducible
bit-for-bit no matter how trials are scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import private_empty
from .algebra import ROW_BLOCK, DivisionAlgebra, HermitianMatrix
from .exceptions import ParameterError

__all__ = [
    "CheckerboardParams",
    "HollowParams",
    "sample_checkerboard",
    "sample_hollow_chunk",
    "congruence_indicator_matrix",
]

DISTRIBUTIONS = ("normal", "rademacher")

# Stream domains; 2 (a single-matrix hollow sampler) and 3 (one stream per hollow
# batch) are retired, never reused.
_DOMAIN_CHECKERBOARD = 1
_DOMAIN_HOLLOW_CHUNK = 4

_MAX_SEED = 2**64
_MAX_TRIAL = 2**48
# Matrices of a hollow chunk: one Philox stream, drawn, assembled and solved as one
# trial-pool item.  Part of the output contract: chunk j holds matrices
# BATCH_CHUNK*j onwards, so changing it changes every hollow batch past its first chunk.
BATCH_CHUNK = 1024


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Philox generator keyed on (seed, domain, trial or chunk index)."""
    if not 0 <= index < _MAX_TRIAL:
        raise ParameterError(f"stream index {index} outside [0, 2**48)")
    key = np.array([seed, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _component_draws(rng: np.random.Generator, distribution: str, shape: tuple) -> np.ndarray:
    out = private_empty(shape)
    if distribution == "normal":
        return rng.standard_normal(out=out)
    # Rademacher: fair +/-1 coin per real component, 2.0 * coin - 1.0, ROW_BLOCK rows of coins at a time; the
    # stream gives the same coins in blocks as in one call
    rows = out.reshape(-1, shape[-1])
    for r0 in range(0, len(rows), ROW_BLOCK):
        block = rows[r0:r0 + ROW_BLOCK]
        np.subtract(np.multiply(2.0, rng.integers(0, 2, size=block.shape), out=block), 1.0, out=block)
    return out


def _check_modulus(dim: int, k: int) -> None:
    if not 1 <= k <= dim:
        raise ParameterError(f"need 1 <= k <= dim, got k={k}, dim={dim}")


def _validate_seed(seed: int) -> None:
    if not 0 <= seed < _MAX_SEED:
        raise ParameterError(f"seed {seed} outside the unsigned 64-bit range")


@dataclass(frozen=True)
class CheckerboardParams:
    """Parameters of one checkerboard ensemble."""

    dim: int
    k: int
    w: float = 1.0
    algebra: DivisionAlgebra = DivisionAlgebra.REAL
    distribution: str = "normal"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algebra", DivisionAlgebra.parse(self.algebra))
        if self.dim < 1:
            raise ParameterError(f"dimension must be positive, got {self.dim}")
        _check_modulus(self.dim, self.k)
        if not math.isfinite(self.w):
            raise ParameterError(f"w must be finite, got {self.w}")
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}; expected one of {DISTRIBUTIONS}")
        _validate_seed(self.seed)


@dataclass(frozen=True)
class HollowParams:
    """Parameters of a hollow Gaussian ensemble (zero diagonal GOE/GUE/GSE)."""

    k: int
    algebra: DivisionAlgebra = DivisionAlgebra.REAL
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "algebra", DivisionAlgebra.parse(self.algebra))
        if self.k < 1:
            raise ParameterError(f"dimension must be positive, got {self.k}")
        _validate_seed(self.seed)


def _set_congruent(data: np.ndarray, k: int, value) -> None:
    """Write `value` at every position i = j mod k of a grid: one strided block per residue."""
    for r in range(k):
        data[r::k, r::k] = value


def _symmetrize(grid: np.ndarray, combine, conjugate: bool = False) -> None:
    """Replace grids (..., N, N) by ``combine(U, U^T)`` in place, U = triu(grid, 1), ROW_BLOCK rows at a time.

    With `conjugate`, U^T is conjugated.  Blocks go from the last up: block B
    reads the rows up to its own end, which no block before it has written.
    Left of B's diagonal tile U is zero, right of it U^T is, and each is
    combined with the zero np.triu leaves, so only the tile makes a
    temporary.
    """
    n = grid.shape[-1]
    zero = np.zeros((), grid.dtype)
    for r0 in reversed(range(0, n, ROW_BLOCK)):
        r1 = min(r0 + ROW_BLOCK, n)
        left, tile, right = grid[..., r0:r1, :r0], grid[..., r0:r1, r0:r1], grid[..., r0:r1, r1:]
        mirror = grid[..., :r0, r0:r1].swapaxes(-1, -2)
        combine(zero, np.conj(mirror, out=left) if conjugate else mirror, out=left)
        upper = np.triu(tile, 1)
        lower = upper.swapaxes(-1, -2)
        combine(upper, np.conj(lower) if conjugate else lower, out=tile)
        combine(right, np.conj(zero) if conjugate else zero, out=right)


def _hermitian_from_upper(comps: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """Assemble a self-adjoint grid from component draws, zero diagonal.

    ``comps`` has shape (components, [batch,] N, N); only the strict upper
    triangle of each draw is used, the lower triangle is its conjugate.  Real
    and quaternion sums go into the spent draws themselves, and a quaternion
    grid is returned as their (..., N, N, 4) view; a complex grid is a new
    array.
    """
    divisor = algebra.entry_divisor
    if algebra is DivisionAlgebra.REAL:
        _symmetrize(comps[0], np.add)
        return comps[0]
    if algebra is DivisionAlgebra.COMPLEX:
        # (c0 + 1j * c1) / divisor, one complex division by a float: dividing each part instead rounds differently
        grid = np.multiply(1j, comps[1], out=private_empty(comps.shape[1:], complex))
        np.add(comps[0], grid, out=grid)
        np.divide(grid, divisor, out=grid)
        _symmetrize(grid, np.add, conjugate=True)
        return grid
    for part, combine in zip(comps, (np.add, np.subtract, np.subtract, np.subtract)):
        _symmetrize(np.divide(part, divisor, out=part), combine)
    return np.moveaxis(comps, 0, -1)


def sample_checkerboard(params: CheckerboardParams, trial_index: int) -> HermitianMatrix:
    """Draw one checkerboard matrix; identical (params, trial_index) give identical output."""
    n, k = params.dim, params.k
    rng = _stream(params.seed, _DOMAIN_CHECKERBOARD, trial_index)
    shape = (params.algebra.components, n, n)
    # no name holds the draws: a complex grid's spent draws are unmapped before the grid is checked
    data = _hermitian_from_upper(_component_draws(rng, params.distribution, shape), params.algebra)
    quaternion = params.algebra is DivisionAlgebra.QUATERNION
    _set_congruent(data, k, (params.w, 0.0, 0.0, 0.0) if quaternion else params.w)
    return HermitianMatrix(data, params.algebra)


def sample_hollow_chunk(params: HollowParams, index: int, size: int) -> np.ndarray:
    """Matrices BATCH_CHUNK*index to BATCH_CHUNK*index + size - 1 of a hollow batch,
    zero diagonal and unit-variance entries, as one array of shape (size, k, k[, 4]).

    Each chunk is its own Philox stream keyed on (seed, index), and draws its
    matrices one after another, so matrix t depends only on (seed, t): a batch
    of fewer trials is a prefix of a larger one.
    """
    if not 1 <= size <= BATCH_CHUNK:
        raise ParameterError(f"chunk size must be in [1, {BATCH_CHUNK}], got {size}")
    rng = _stream(params.seed, _DOMAIN_HOLLOW_CHUNK, index)
    comps = rng.standard_normal((size, params.algebra.components, params.k, params.k))
    return _hermitian_from_upper(comps.swapaxes(0, 1), params.algebra)


def congruence_indicator_matrix(dim: int, k: int, w: float) -> HermitianMatrix:
    """The fixed matrix with w at every position i = j mod k and 0 elsewhere.

    When k divides the dimension its spectrum is exactly {dim*w/k with
    multiplicity k, 0 with multiplicity dim-k}.
    """
    _check_modulus(dim, k)
    data = np.zeros((dim, dim))
    _set_congruent(data, k, float(w))
    return HermitianMatrix(data, DivisionAlgebra.REAL)
