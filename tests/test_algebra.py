"""Conjugate transposition, exact self-adjointness, and the complex embedding of quaternion matrices."""

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix, conjugate_transpose, embed_quaternion_blocks
from checkerboard_rmt.exceptions import DimensionError, HermitianInvariantError

from helpers import random_hermitian

I = np.array([0.0, 1.0, 0.0, 0.0])


def test_conjugate_transpose_real_symmetric_fixed_point():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(conjugate_transpose(sym, "real"), sym)


def test_conjugate_transpose_involution():
    rng = np.random.default_rng(3)
    cplx = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(conjugate_transpose(conjugate_transpose(cplx, "complex"), "complex"), cplx)
    quat = rng.standard_normal((4, 4, 4))
    assert np.array_equal(conjugate_transpose(conjugate_transpose(quat, "quaternion"), "quaternion"), quat)


def test_conjugate_transpose_rejects_rectangular():
    with pytest.raises(DimensionError):
        conjugate_transpose(np.zeros((2, 3)), "real")


def test_quaternion_antisymmetric_imaginary_matrix_is_fixed():
    # [[0, i], [-i, 0]] is its own conjugate transpose
    data = np.zeros((2, 2, 4))
    data[0, 1] = I
    data[1, 0] = -I
    assert np.array_equal(conjugate_transpose(data, DivisionAlgebra.QUATERNION), data)
    HermitianMatrix(data, DivisionAlgebra.QUATERNION)


def test_hermitian_accepts_pauli_like_matrix():
    m = HermitianMatrix(np.array([[0, 1j], [-1j, 0]]), "complex")
    assert m.algebra is DivisionAlgebra.COMPLEX
    assert np.array_equal(conjugate_transpose(m.data, m.algebra), m.data)


def test_hermitian_rejects_corrupted_entry():
    rng = np.random.default_rng(11)
    good = random_hermitian(rng, 4, DivisionAlgebra.QUATERNION)
    bad = good.data.copy()
    bad[1, 2, 3] += 1e-9
    with pytest.raises(HermitianInvariantError):
        HermitianMatrix(bad, DivisionAlgebra.QUATERNION)


def _embed(matrix: HermitianMatrix) -> HermitianMatrix:
    """The 2N x 2N complex embedding of a quaternion matrix, checked exactly self-adjoint on construction."""
    return HermitianMatrix(embed_quaternion_blocks(matrix.data), DivisionAlgebra.COMPLEX)


def test_embed_real_scalar_doubles():
    w = 2.5
    m = HermitianMatrix(np.array([[[w, 0.0, 0.0, 0.0]]]), DivisionAlgebra.QUATERNION)
    emb = _embed(m)
    assert emb.dim == 2
    assert np.array_equal(emb.data, np.array([[w, 0], [0, w]], dtype=complex))
    assert np.allclose(np.linalg.eigvalsh(emb.data), [w, w])


def test_embed_unit_offdiagonal_spectrum():
    # [[0, q], [conj(q), 0]] with |q| = 1 has eigenvalues +/-1, each doubled
    q = np.array([0.5, 0.5, 0.5, 0.5])
    data = np.zeros((2, 2, 4))
    data[0, 1] = q
    data[1, 0] = [0.5, -0.5, -0.5, -0.5]  # conj(q)
    emb = _embed(HermitianMatrix(data, DivisionAlgebra.QUATERNION))
    assert np.allclose(np.linalg.eigvalsh(emb.data), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_embedding_preserves_selfadjointness():
    # 1000 random quaternion Hermitian inputs of sizes 1..8; construction of the
    # embedding re-runs the exact Hermitian check
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        dim = 1 + trial % 8
        emb = _embed(random_hermitian(rng, dim, DivisionAlgebra.QUATERNION))
        assert emb.dim == 2 * dim


def test_embedding_doubles_every_eigenvalue():
    rng = np.random.default_rng(99)
    for trial in range(50):
        dim = 1 + trial % 8
        emb = _embed(random_hermitian(rng, dim, DivisionAlgebra.QUATERNION))
        vals = np.linalg.eigvalsh(emb.data)
        first, second = vals[0::2], vals[1::2]
        scale = np.maximum(1.0, np.abs(first))
        assert np.all(np.abs(first - second) <= 1e-9 * scale)
