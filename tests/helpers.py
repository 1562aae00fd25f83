"""Shared construction helpers and independent references for the test suite."""

from dataclasses import dataclass

import numpy as np

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix
from checkerboard_rmt.exceptions import AlgebraMismatchError, DimensionError
from checkerboard_rmt.spectra import eigensolve


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


def random_hermitian(rng: np.random.Generator, dim: int, algebra: DivisionAlgebra) -> HermitianMatrix:
    """Random dense self-adjoint matrix: A + conj(A)^T of an i.i.d. normal grid."""
    algebra = DivisionAlgebra.parse(algebra)
    if algebra is DivisionAlgebra.REAL:
        raw = rng.standard_normal((dim, dim))
    elif algebra is DivisionAlgebra.COMPLEX:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    else:
        raw = rng.standard_normal((dim, dim, 4))
    return HermitianMatrix(raw + conjugate_transpose(raw, algebra), algebra)


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
