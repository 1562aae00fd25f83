"""Scalar and matrix arithmetic over the real, complex, and quaternion algebras.

Quaternion values are read as arrays with a trailing axis of length 4 holding
the components (real, i, j, k).  A quaternion matrix holds its (N, N, 4)
components; the eigensolver takes their standard embedding into a 2N x 2N
complex matrix, written by `embed_quaternion_blocks` alone, of a grid, a stack
of grids or any rectangular block of components.  Only the arithmetic needed
to build and diagonalize self-adjoint matrices is implemented.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .exceptions import AlgebraMismatchError, DimensionError, HermitianInvariantError

__all__ = [
    "DivisionAlgebra",
    "HermitianMatrix",
]

# Rows of a grid assembled or checked at a time: whole-grid temporaries become (ROW_BLOCK, N) ones.
ROW_BLOCK = 64


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


def _is_self_adjoint(data: np.ndarray, algebra: DivisionAlgebra) -> bool:
    """``entries[i][j] == conj(entries[j][i])`` exactly; quaternion grids are compared one component at a time.

    Each block of ROW_BLOCK rows is compared with the columns up to its end,
    which covers every pair (i, j) with j <= i; the condition on (j, i) is
    the same.  No whole transpose is made.
    """
    for r0 in range(0, len(data), ROW_BLOCK):
        r1 = min(r0 + ROW_BLOCK, len(data))
        rows, cols = data[r0:r1, :r1], data[:r1, r0:r1].swapaxes(0, 1)
        if algebra is DivisionAlgebra.COMPLEX:
            cols = np.conj(cols)
        if algebra is not DivisionAlgebra.QUATERNION:
            equal = np.array_equal(rows, cols)
        else:
            equal = all(np.array_equal(rows[..., c], cols[..., c] if c == 0 else -cols[..., c]) for c in range(4))
        if not equal:
            return False
    return True


class HermitianMatrix:
    """Dense self-adjoint matrix over a division algebra.

    Storage, held as `data`: (N, N) float64 for real, (N, N) complex128 for
    complex, and for quaternion the (N, N, 4) float64 components, as a
    read-only view.  A caller's array of that dtype is held, not copied.
    Construction checks
    ``entries[i][j] == conj(entries[j][i])`` to exact equality, which also
    forces the diagonal to have vanishing imaginary components.
    """

    __slots__ = ("data", "algebra")

    def __init__(self, data: np.ndarray, algebra: "DivisionAlgebra | str"):
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
        if not _is_self_adjoint(data, algebra):
            raise HermitianInvariantError("matrix is not exactly self-adjoint")
        if algebra is DivisionAlgebra.QUATERNION:
            data = data.view()
            data.flags.writeable = False
        self.data, self.algebra = data, algebra

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


# Entry r + x*i + y*j + z*k of a quaternion grid is the 2x2 block [[r + x*1j, y + z*1j], [-y + z*1j, r - x*1j]]
# of its complex embedding: the block's even row holds (r, x, y, z) as the real and imaginary parts of its two
# columns, its odd row (-y, z, r, -x).  Component c sits at _ODD_ROW[c] = (slot, negated) in the odd row.
_ODD_ROW = ((2, False), (3, True), (0, True), (1, False))


def embed_quaternion_blocks(comps: np.ndarray) -> np.ndarray:
    """Map quaternion blocks (..., P, Q, 4) to complex blocks (..., 2P, 2Q).

    Each entry r + x*i + y*j + z*k becomes the 2x2 block
    [[r + x*1j, y + z*1j], [-y + z*1j, r - x*1j]], written one component at
    a time; the spectrum of a self-adjoint grid (P = Q) is preserved with
    every eigenvalue doubled, and so are the singular values of any block.
    Every slot holds a component or its negation, so the embedding equals
    that complex arithmetic bit for bit wherever the components are finite
    and nonzero.  A ±0 component can leave a zero slot with the other sign,
    and an infinite one keeps its value where that arithmetic gives NaN
    (0 * inf).
    """
    comps = np.asarray(comps, dtype=float)
    out = np.empty((*comps.shape[:-3], 2 * comps.shape[-3], 2 * comps.shape[-2]), dtype=complex)
    rows = out.view(float).reshape(*out.shape[:-1], out.shape[-1] // 2, 4)  # row, block column, slot
    for c, (slot, negated) in enumerate(_ODD_ROW):
        even, odd = rows[..., 0::2, :, c], rows[..., 1::2, :, slot]
        even[...] = comps[..., c]
        if negated:  # 0 - v, not -v: a +0 component gives +0, as r - x*1j does
            np.subtract(0.0, even, out=odd)
        else:
            odd[...] = even
    return out
