"""Scalar and matrix arithmetic over the real, complex, and quaternion algebras.

Quaternion values are stored as arrays with a trailing axis of length 4 holding
the components (real, i, j, k).  Only the arithmetic needed to build and
diagonalize self-adjoint matrices is implemented; quaternion eigensolution goes
through the standard embedding into 2N x 2N complex matrices.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .exceptions import AlgebraMismatchError, DimensionError, HermitianInvariantError

__all__ = [
    "DivisionAlgebra",
    "HermitianMatrix",
    "conjugate_transpose",
]


class DivisionAlgebra(Enum):
    """Entry algebra of a matrix ensemble: reals, complexes, or quaternions."""

    REAL = "real"
    COMPLEX = "complex"
    QUATERNION = "quaternion"

    @property
    def components(self) -> int:
        """Number of independent real components per scalar."""
        return {DivisionAlgebra.REAL: 1, DivisionAlgebra.COMPLEX: 2, DivisionAlgebra.QUATERNION: 4}[self]

    @property
    def entry_divisor(self) -> float:
        """Normalization giving unit second absolute moment to a standard entry."""
        return {DivisionAlgebra.REAL: 1.0, DivisionAlgebra.COMPLEX: math.sqrt(2.0), DivisionAlgebra.QUATERNION: 2.0}[self]

    @classmethod
    def parse(cls, name: "str | DivisionAlgebra") -> "DivisionAlgebra":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).strip().lower())
        except ValueError:
            raise AlgebraMismatchError(f"unknown division algebra {name!r}; expected real, complex, or quaternion") from None


def conjugate_transpose(data: np.ndarray, algebra: "DivisionAlgebra | str") -> np.ndarray:
    """Conjugate transpose of a dense square grid over any of the three algebras.

    Applying it twice returns the input exactly.
    """
    data = np.asarray(data)
    algebra = DivisionAlgebra.parse(algebra)
    if data.ndim < 2 or data.shape[0] != data.shape[1]:
        raise DimensionError(f"conjugate transpose requires a square matrix, got shape {data.shape}")
    if algebra is DivisionAlgebra.REAL:
        return np.ascontiguousarray(data.T)
    if algebra is DivisionAlgebra.COMPLEX:
        return np.ascontiguousarray(data.conj().T)
    out = np.swapaxes(data, 0, 1).copy()
    out[..., 1:] = -out[..., 1:]
    return out


class HermitianMatrix:
    """Dense self-adjoint matrix over a division algebra.

    Storage: (N, N) float64 for real, (N, N) complex128 for complex, and
    (N, N, 4) float64 components for quaternion.  Construction checks
    ``entries[i][j] == conj(entries[j][i])`` to exact equality, which also
    forces the diagonal to have vanishing imaginary components.
    """

    __slots__ = ("data", "algebra")

    def __init__(self, data: np.ndarray, algebra: "DivisionAlgebra | str", *, validate: bool = True):
        algebra = DivisionAlgebra.parse(algebra)
        if algebra is DivisionAlgebra.QUATERNION:
            data = np.asarray(data, dtype=float)
            if data.ndim != 3 or data.shape[-1] != 4 or data.shape[0] != data.shape[1]:
                raise DimensionError(f"quaternion matrix needs shape (N, N, 4), got {data.shape}")
        else:
            dtype = complex if algebra is DivisionAlgebra.COMPLEX else float
            data = np.asarray(data, dtype=dtype)
            if data.ndim != 2 or data.shape[0] != data.shape[1]:
                raise DimensionError(f"matrix needs a square shape, got {data.shape}")
        if validate and not np.array_equal(data, conjugate_transpose(data, algebra)):
            raise HermitianInvariantError("matrix is not exactly self-adjoint")
        self.data = data
        self.algebra = algebra

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def trace(self) -> float:
        """Real trace (the diagonal of a self-adjoint matrix is real)."""
        if self.algebra is DivisionAlgebra.QUATERNION:
            return float(np.trace(self.data[..., 0]))
        return float(np.trace(self.data).real)

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianMatrix(dim={self.dim}, algebra={self.algebra.value})"


def embed_quaternion_blocks(comps: np.ndarray) -> np.ndarray:
    """Map quaternion grids (..., N, N, 4) to complex grids (..., 2N, 2N).

    Each entry r + x*i + y*j + z*k becomes the 2x2 block
    [[r + x*1j, y + z*1j], [-y + z*1j, r - x*1j]]; the spectrum of a
    self-adjoint input is preserved with every eigenvalue doubled.
    """
    comps = np.asarray(comps, dtype=float)
    n = comps.shape[-2]
    r, x, y, z = comps[..., 0], comps[..., 1], comps[..., 2], comps[..., 3]
    out = np.empty(comps.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = r + 1j * x
    out[..., 0::2, 1::2] = y + 1j * z
    out[..., 1::2, 0::2] = -y + 1j * z
    out[..., 1::2, 1::2] = r - 1j * x
    return out

