"""Samplers for checkerboard and hollow Gaussian ensembles.

A checkerboard matrix of dimension N with modulus k holds the constant w at
every position with i congruent to j mod k (0-based indices, so the whole
diagonal), and self-adjoint random entries everywhere else.  Hollow Gaussian
matrices are the classical GOE/GUE/GSE with the diagonal forced to zero.

Randomness comes from counter-based Philox streams keyed on
(master seed, domain, trial index), so every trial is reproducible bit-for-bit
no matter how trials are scheduled across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DivisionAlgebra, HermitianMatrix
from .exceptions import ParameterError

__all__ = [
    "CheckerboardParams",
    "HollowParams",
    "sample_checkerboard",
    "sample_hollow_batch",
    "congruence_indicator_matrix",
]

DISTRIBUTIONS = ("normal", "rademacher")

# Stream domains; 2 is retired (a single-matrix hollow sampler), never reused.
_DOMAIN_CHECKERBOARD = 1
_DOMAIN_HOLLOW_BATCH = 3

_MAX_SEED = 2**64
_MAX_TRIAL = 2**48


def _stream(seed: int, domain: int, index: int) -> np.random.Generator:
    """Philox generator keyed on (seed, domain, trial index)."""
    if not 0 <= index < _MAX_TRIAL:
        raise ParameterError(f"trial index {index} outside [0, 2**48)")
    key = np.array([seed, (domain << 48) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _component_draws(rng: np.random.Generator, distribution: str, shape: tuple) -> np.ndarray:
    if distribution == "normal":
        return rng.standard_normal(shape)
    # Rademacher: fair +/-1 coin per real component.
    return 2.0 * rng.integers(0, 2, size=shape).astype(float) - 1.0


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
        if not 1 <= self.k <= self.dim:
            raise ParameterError(f"need 1 <= k <= dim, got k={self.k}, dim={self.dim}")
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


def _congruence_mask(dim: int, k: int) -> np.ndarray:
    idx = np.arange(dim)
    return (np.subtract.outer(idx, idx) % k) == 0


def _hermitian_from_upper(comps: np.ndarray, algebra: DivisionAlgebra) -> np.ndarray:
    """Assemble a self-adjoint grid from component draws, zero diagonal.

    ``comps`` has shape (components, ..., N, N); only the strict upper
    triangle of each draw is used, the lower triangle is its conjugate.
    The sum goes into storage already spent (the draws themselves, or the
    scaled complex grid) rather than into a new grid.
    """
    divisor = algebra.entry_divisor
    if algebra is DivisionAlgebra.REAL:
        upper = np.triu(comps[0], 1)
        return np.add(upper, upper.swapaxes(-1, -2), out=comps[0])
    if algebra is DivisionAlgebra.COMPLEX:
        # one complex division by a float: dividing each part instead rounds differently
        scaled = (comps[0] + 1j * comps[1]) / divisor
        upper = np.triu(scaled, 1)
        np.conj(upper.swapaxes(-1, -2), out=scaled)
        return np.add(upper, scaled, out=scaled)
    grid = np.empty((*comps.shape[1:], 4))
    for c in range(4):
        upper = np.triu(comps[c] / divisor, 1)
        (np.add if c == 0 else np.subtract)(upper, upper.swapaxes(-1, -2), out=grid[..., c])
    return grid


def sample_checkerboard(params: CheckerboardParams, trial_index: int) -> HermitianMatrix:
    """Draw one checkerboard matrix; identical (params, trial_index) give identical output."""
    n, k = params.dim, params.k
    rng = _stream(params.seed, _DOMAIN_CHECKERBOARD, trial_index)
    comps = _component_draws(rng, params.distribution, (params.algebra.components, n, n))
    data = _hermitian_from_upper(comps, params.algebra)
    mask = _congruence_mask(n, k)
    if params.algebra is DivisionAlgebra.QUATERNION:
        data[mask] = 0.0
        data[mask, 0] = params.w
    else:
        data[mask] = params.w
    return HermitianMatrix(data, params.algebra)


def sample_hollow_batch(params: HollowParams, trials: int, batch_index: int = 0) -> np.ndarray:
    """Draw a stack of hollow matrices (zero diagonal, unit-variance entries)
    as one array of shape (trials, k, k[, 4]).

    The whole batch comes from a single Philox stream keyed on
    (seed, batch_index).
    """
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    rng = _stream(params.seed, _DOMAIN_HOLLOW_BATCH, batch_index)
    comps = rng.standard_normal((params.algebra.components, trials, params.k, params.k))
    return _hermitian_from_upper(comps, params.algebra)


def congruence_indicator_matrix(dim: int, k: int, w: float) -> HermitianMatrix:
    """The fixed matrix with w at every position i = j mod k and 0 elsewhere.

    When k divides the dimension its spectrum is exactly {dim*w/k with
    multiplicity k, 0 with multiplicity dim-k}.
    """
    if not 1 <= k <= dim:
        raise ParameterError(f"need 1 <= k <= dim, got k={k}, dim={dim}")
    data = np.where(_congruence_mask(dim, k), float(w), 0.0)
    return HermitianMatrix(data, DivisionAlgebra.REAL)
