"""Quaternion arithmetic, conjugate transposition, and the complex embedding."""

import numpy as np
import pytest

from checkerboard_rmt.algebra import (
    DivisionAlgebra,
    HermitianMatrix,
    complex_embed,
    conjugate_transpose,
    quat_conjugate,
    quat_multiply,
)
from checkerboard_rmt.exceptions import AlgebraMismatchError, DimensionError, HermitianInvariantError

from helpers import random_hermitian

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])


def test_quaternion_unit_relations():
    for unit in (I, J, K):
        assert np.array_equal(quat_multiply(unit, unit), -ONE)
    assert np.array_equal(quat_multiply(I, J), K)
    assert np.array_equal(quat_multiply(J, K), I)
    assert np.array_equal(quat_multiply(K, I), J)
    assert np.array_equal(quat_multiply(quat_multiply(I, J), K), -ONE)
    assert np.array_equal(quat_multiply(J, I), -K)


def test_quaternion_multiplication_associative():
    rng = np.random.default_rng(7)
    a, b, c = rng.standard_normal((3, 200, 4))
    lhs = quat_multiply(quat_multiply(a, b), c)
    rhs = quat_multiply(a, quat_multiply(b, c))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_conjugation_reverses_products():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((1000, 4))
    b = rng.standard_normal((1000, 4))
    lhs = quat_conjugate(quat_multiply(a, b))
    rhs = quat_multiply(quat_conjugate(b), quat_conjugate(a))
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_conjugate_transpose_real_symmetric_fixed_point():
    sym = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.array_equal(conjugate_transpose(sym), sym)


def test_conjugate_transpose_involution():
    rng = np.random.default_rng(3)
    cplx = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.array_equal(conjugate_transpose(conjugate_transpose(cplx)), cplx)
    quat = rng.standard_normal((4, 4, 4))
    assert np.array_equal(conjugate_transpose(conjugate_transpose(quat)), quat)


def test_conjugate_transpose_rejects_rectangular():
    with pytest.raises(DimensionError):
        conjugate_transpose(np.zeros((2, 3)))


def test_quaternion_antisymmetric_imaginary_matrix_is_fixed():
    # [[0, i], [-i, 0]] is its own conjugate transpose
    data = np.zeros((2, 2, 4))
    data[0, 1] = I
    data[1, 0] = -I
    assert np.array_equal(conjugate_transpose(data), data)
    HermitianMatrix(data, DivisionAlgebra.QUATERNION)


def test_hermitian_accepts_pauli_like_matrix():
    m = HermitianMatrix(np.array([[0, 1j], [-1j, 0]]))
    assert m.algebra is DivisionAlgebra.COMPLEX
    assert np.array_equal(conjugate_transpose(m.data), m.data)


def test_hermitian_rejects_corrupted_entry():
    rng = np.random.default_rng(11)
    good = random_hermitian(rng, 4, DivisionAlgebra.QUATERNION)
    bad = good.data.copy()
    bad[1, 2, 3] += 1e-9
    with pytest.raises(HermitianInvariantError):
        HermitianMatrix(bad, DivisionAlgebra.QUATERNION)


def test_embed_real_scalar_doubles():
    w = 2.5
    m = HermitianMatrix(np.array([[[w, 0.0, 0.0, 0.0]]]), DivisionAlgebra.QUATERNION)
    emb = complex_embed(m)
    assert emb.dim == 2
    assert np.array_equal(emb.data, np.array([[w, 0], [0, w]], dtype=complex))
    assert np.allclose(np.linalg.eigvalsh(emb.data), [w, w])


def test_embed_unit_offdiagonal_spectrum():
    # [[0, q], [conj(q), 0]] with |q| = 1 has eigenvalues +/-1, each doubled
    q = np.array([0.5, 0.5, 0.5, 0.5])
    data = np.zeros((2, 2, 4))
    data[0, 1] = q
    data[1, 0] = quat_conjugate(q)
    emb = complex_embed(HermitianMatrix(data, DivisionAlgebra.QUATERNION))
    assert np.allclose(np.linalg.eigvalsh(emb.data), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)


def test_embed_requires_quaternion_input():
    with pytest.raises(AlgebraMismatchError):
        complex_embed(HermitianMatrix(np.eye(3)))


def test_embedding_preserves_selfadjointness():
    # 1000 random quaternion Hermitian inputs of sizes 1..8; construction of the
    # embedding re-runs the exact Hermitian check
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        dim = 1 + trial % 8
        emb = complex_embed(random_hermitian(rng, dim, DivisionAlgebra.QUATERNION))
        assert emb.dim == 2 * dim


def test_embedding_doubles_every_eigenvalue():
    rng = np.random.default_rng(99)
    for trial in range(50):
        dim = 1 + trial % 8
        emb = complex_embed(random_hermitian(rng, dim, DivisionAlgebra.QUATERNION))
        vals = np.linalg.eigvalsh(emb.data)
        first, second = vals[0::2], vals[1::2]
        scale = np.maximum(1.0, np.abs(first))
        assert np.all(np.abs(first - second) <= 1e-9 * scale)
