"""Conjugate transposition, exact self-adjointness, and the complex embedding of quaternion matrices."""

import numpy as np
import pytest

from checkerboard_rmt.algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from checkerboard_rmt.ensembles import CheckerboardParams, HollowParams, sample_checkerboard, sample_hollow_chunk
from checkerboard_rmt.exceptions import DimensionError, HermitianInvariantError
from checkerboard_rmt.spectra import _write_upper

from helpers import conjugate_transpose, random_hermitian

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


def _block_formula(comps):
    """The embedding written as complex arithmetic on whole components, signed zeros and all."""
    r, x, y, z = (comps[..., c] for c in range(4))
    out = np.empty((*comps.shape[:-3], 2 * comps.shape[-3], 2 * comps.shape[-2]), dtype=complex)
    out[..., 0::2, 0::2] = r + 1j * x
    out[..., 0::2, 1::2] = y + 1j * z
    out[..., 1::2, 0::2] = -y + 1j * z
    out[..., 1::2, 1::2] = r - 1j * x
    return out


def _assert_upper_triangle_is_the_embeddings(data, quaternion=True):
    """`_write_upper` writes the whole embedding's (or complex grid's) upper triangle bit for bit, and nothing below it."""
    whole = embed_quaternion_blocks(data) if quaternion else data
    upper = np.full(whole.shape, complex(np.nan, np.nan))
    _write_upper(data, quaternion, upper)
    above = np.triu(np.ones(whole.shape, dtype=bool))
    assert upper[above].tobytes() == whole[above].tobytes()
    assert np.isnan(upper[~above].view(float)).all()


@pytest.mark.parametrize(
    "dim, k, w, dist",
    [(1, 1, 1.0, "normal"), (6, 2, 1.0, "normal"), (7, 3, 1.5, "rademacher"), (30, 5, 0.0, "normal"),
     (64, 7, 2.0, "rademacher"), (120, 2, -1.0, "normal")],
)
def test_held_components_embed_to_the_block_formula(dim, k, w, dist):
    sampled = sample_checkerboard(CheckerboardParams(dim, k, w, "quaternion", dist, seed=dim), 2)
    built = random_hermitian(np.random.default_rng(dim), dim, DivisionAlgebra.QUATERNION)
    for matrix in (sampled, built):
        assert embed_quaternion_blocks(matrix.data).tobytes() == _block_formula(matrix.data).tobytes()
        _assert_upper_triangle_is_the_embeddings(matrix.data)


@pytest.mark.parametrize("dim", [1, 15, 16, 17, 417])
def test_complex_upper_triangle_is_the_grids(dim):
    # one block row short of, exactly at and one past a 16-row block, and a ragged last block at a two-stage order
    data = random_hermitian(np.random.default_rng(dim), dim, DivisionAlgebra.COMPLEX).data
    _assert_upper_triangle_is_the_embeddings(data, quaternion=False)
    _assert_upper_triangle_is_the_embeddings(-data, quaternion=False)


def test_embedding_differs_from_the_block_formula_only_in_zero_signs():
    # y = +0 with z < 0: the formula's -y + 1j*z has real part -0 + (0*z - 0) = -0.0, the embedding 0 - y = +0.0
    data = np.zeros((2, 2, 4))
    data[0, 0] = data[1, 1] = (1.0, 0.0, 0.0, 0.0)
    data[0, 1] = (0.5, -0.0, 0.0, -2.0)
    data[1, 0] = (0.5, 0.0, -0.0, 2.0)
    held = HermitianMatrix(data, DivisionAlgebra.QUATERNION).data
    embedded, formula = embed_quaternion_blocks(held), _block_formula(data)
    assert np.array_equal(embedded, formula)
    differ = embedded.view(np.int64) != formula.view(np.int64)
    assert differ.any() and np.all(embedded.view(float)[differ] == 0.0)
    # the triangle writer keeps the embedding's zero signs, and its +0 and -0 diagonal imaginary parts
    _assert_upper_triangle_is_the_embeddings(data)
    _assert_upper_triangle_is_the_embeddings(-data)


def test_embedding_of_a_stack_is_the_block_formula():
    chunk = sample_hollow_chunk(HollowParams(k=5, algebra="quaternion", seed=2), 0, 40)
    assert embed_quaternion_blocks(chunk).tobytes() == _block_formula(chunk).tobytes()


@pytest.mark.parametrize("dim", [2, 7, 40])
def test_embedding_of_a_rectangular_block_is_the_block_formula(dim):
    # the p x q block of entries (even row, odd column), p = ceil(N/2), is the bipartite solver's input: its
    # embedding is the formula's, and the even-row, odd-column blocks of the whole grid's embedding
    data = random_hermitian(np.random.default_rng(dim), dim, DivisionAlgebra.QUATERNION).data
    block, whole = data[0::2, 1::2], embed_quaternion_blocks(data)
    embedded = embed_quaternion_blocks(block)
    assert embedded.shape == (2 * ((dim + 1) // 2), 2 * (dim // 2))
    assert embedded.tobytes() == _block_formula(block).tobytes()
    pairs = np.arange(2 * dim).reshape(dim, 2)  # the embedding's two rows (or columns) of each grid row (or column)
    assert embedded.tobytes() == whole[np.ix_(pairs[0::2].ravel(), pairs[1::2].ravel())].tobytes()


def test_quaternion_components_are_a_read_only_view():
    data = random_hermitian(np.random.default_rng(4), 3, DivisionAlgebra.QUATERNION).data.copy()
    m = HermitianMatrix(data, DivisionAlgebra.QUATERNION)
    assert m.data.shape == (3, 3, 4) and np.array_equal(m.data, data)
    assert m.data.base is data  # the caller's storage, as a real or complex matrix holds it, not a copy
    with pytest.raises(ValueError, match="read-only"):
        m.data[0, 0, 0] = 1.0
    assert data.flags.writeable
    # the sampler's matrix holds its spent draws, the (4, N, N) component planes, and nothing beside them: in an
    # array from numpy below 2 MiB, in a private mapping above
    for n in (4, 300):
        sampled = sample_checkerboard(CheckerboardParams(n, 2, algebra="quaternion"), 0).data
        assert sampled.strides == (8 * n, 8, 8 * n * n) and not sampled.flags.owndata
        storage = sampled
        while isinstance(storage.base, np.ndarray):
            storage = storage.base
        assert storage.nbytes == sampled.nbytes == 32 * n * n
        with pytest.raises(ValueError, match="read-only"):
            sampled[1, 2] = 0.0


# N = 130 is checked in row blocks [0, 64), [64, 128) and the ragged [128, 130), each against the columns up to its
# own end.  Each case breaks self-adjointness at one entry, which only one block reads: skipping it passes the grid.
_ONE_BLOCK_FAULTS = {"ragged last block": (129, 3), "off-diagonal block": (100, 20), "diagonal NaN": (5, 5)}


@pytest.mark.parametrize("fault", list(_ONE_BLOCK_FAULTS))
@pytest.mark.parametrize("algebra", list(DivisionAlgebra), ids=[a.value for a in DivisionAlgebra])
def test_self_adjoint_check_reads_every_row_block(algebra, fault):
    data = random_hermitian(np.random.default_rng(130), 130, algebra).data.copy()
    i, j = _ONE_BLOCK_FAULTS[fault]
    HermitianMatrix(data, algebra)
    if i == j:
        data[i, j] = np.nan
    elif algebra is DivisionAlgebra.QUATERNION:
        data[i, j, 3] += 0.5
    else:
        data[i, j] += 0.5j if algebra is DivisionAlgebra.COMPLEX else 0.5
    with pytest.raises(HermitianInvariantError):
        HermitianMatrix(data, algebra)
