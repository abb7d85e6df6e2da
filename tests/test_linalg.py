import numpy as np
import pytest

from ppdecomp import (DimensionMismatch, InvalidInput, haar_basis, orthonormalize,
                      principal_spectrum, spectral_norm, subspace_distance)
from conftest import angled_pair, qr_basis


def test_orthonormalize_rank_one_outer_product():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(6)
    b = rng.standard_normal(4)
    basis = orthonormalize(np.outer(a, b))
    assert basis.shape == (6, 1)
    assert abs(basis[:, 0] @ a) == pytest.approx(np.linalg.norm(a), rel=1e-12)


@pytest.mark.parametrize("shape", [(5, 3), (20, 20), (120, 200), (200, 200)])
def test_orthonormalize_reconstruction(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape)
    basis = orthonormalize(a)
    assert basis.shape == (shape[0], min(shape))
    assert np.allclose(basis.T @ basis, np.eye(min(shape)), atol=1e-10)
    assert np.max(np.abs(basis @ (basis.T @ a) - a)) <= 1e-8 * np.linalg.norm(a, 2)


def test_orthonormalize_zero_matrix_is_rank_zero():
    assert orthonormalize(np.zeros((4, 3))).shape == (4, 0)


def test_orthonormalize_rejects_nonfinite():
    with pytest.raises(InvalidInput):
        orthonormalize(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_orthonormalize_identity():
    basis = orthonormalize(np.eye(3))
    assert basis.shape == (3, 3)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)


def test_orthonormalize_collinear_columns():
    v = np.array([[1.0], [2.0], [0.5]])
    basis = orthonormalize(np.hstack([v, 2 * v]))
    assert basis.shape == (3, 1)


def test_orthonormalize_spans_input():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    basis = orthonormalize(a)
    assert np.max(np.abs(basis @ (basis.T @ a) - a)) <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_orthonormal_columns_invariant(seed):
    rng = np.random.default_rng(seed)
    basis = orthonormalize(rng.standard_normal((30, 7)))
    assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-8


def test_principal_spectrum_identical_subspaces():
    u = qr_basis(10, 4, np.random.default_rng(4))
    assert np.allclose(principal_spectrum(u, u), 1.0, atol=1e-10)


def test_principal_spectrum_orthogonal_subspaces():
    q = qr_basis(12, 6, np.random.default_rng(5))
    assert np.allclose(principal_spectrum(q[:, :3], q[:, 3:]), 0.0, atol=1e-10)


def test_principal_spectrum_planted_angle():
    u1, u2 = angled_pair(20, 4, 3, 60.0, np.random.default_rng(6))
    vals = principal_spectrum(u1, u2)
    assert vals.shape == (3,)
    assert np.allclose(vals, 0.5, atol=1e-8)


def test_principal_spectrum_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(7)
    u1 = qr_basis(15, 4, rng)
    u2 = qr_basis(15, 6, rng)
    fwd = principal_spectrum(u1, u2)
    assert np.allclose(fwd, principal_spectrum(u2, u1), atol=1e-10)
    q = qr_basis(4, 4, rng)
    assert np.allclose(fwd, principal_spectrum(u1 @ q, u2), atol=1e-8)


def test_principal_spectrum_empty_for_rank_zero():
    u = qr_basis(8, 3, np.random.default_rng(8))
    assert principal_spectrum(u, np.zeros((8, 0))).size == 0


def test_principal_spectrum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        principal_spectrum(np.eye(4), np.eye(5))


def test_principal_spectrum_rejects_a_vector():
    with pytest.raises(InvalidInput, match="2-D"):
        principal_spectrum(np.ones(4), np.eye(4))


def test_subspace_distance_between_rank_zero_bases_is_zero():
    assert subspace_distance(np.zeros((6, 0)), np.zeros((6, 0))) == 0.0


def test_spectral_norm_of_matrices_stacks_and_empty_inputs():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 7, 5))
    norms = spectral_norm(a)
    assert norms.shape == (3,)
    for item, norm in zip(a, norms):
        value = spectral_norm(item)
        assert type(value) is float
        assert value == norm == np.linalg.svd(item, compute_uv=False)[0]
    assert spectral_norm(np.zeros((4, 0))) == 0.0 and type(spectral_norm(np.zeros((0, 3)))) is float
    assert np.array_equal(spectral_norm(np.zeros((2, 3, 0, 4))), np.zeros((2, 3)))


def test_subspace_distance_identical():
    u = qr_basis(9, 3, np.random.default_rng(9))
    assert subspace_distance(u, u) == pytest.approx(0.0, abs=1e-10)


def test_subspace_distance_planted_angle():
    u1, u2 = angled_pair(20, 3, 3, 30.0, np.random.default_rng(10))
    assert subspace_distance(u1, u2) == pytest.approx(0.5, abs=1e-8)


def test_subspace_distance_rank_mismatch_is_one():
    q = qr_basis(10, 5, np.random.default_rng(11))
    assert subspace_distance(q[:, :2], q[:, :3]) == 1.0


def test_haar_basis_rejects_a_rank_above_the_dimension():
    with pytest.raises(InvalidInput, match="exceeds ambient dimension"):
        haar_basis(5, 6, np.random.default_rng(0))


def test_haar_basis_shape_is_a_pair_of_counts():
    want = haar_basis(10, 3, np.random.default_rng(0))
    assert np.array_equal(haar_basis(10.0, np.int32(3), np.random.default_rng(0)), want)
    for n, r in ((10, 2.5), (10.5, 3), ("10", 3)):
        with pytest.raises(InvalidInput, match="must be an integer"):
            haar_basis(n, r, np.random.default_rng(0))


HAAR_SHAPES = pytest.mark.parametrize("n,r", [(300, 20), (167, 32), (50, 25), (50, 26),
                                              (40, 40), (20, 20)])


@HAAR_SHAPES
def test_haar_basis_is_the_positive_r_q_factor(n, r):
    # Frames with 2r <= n take CholeskyQR, wider ones a Householder QR; on
    # either route Q is orthonormal, and R = Q^T G has a positive diagonal,
    # which makes Q the unique factor whose law is Haar. On the Cholesky
    # route Q also agrees with the sign-fixed Householder Q of the same G.
    for seed in range(20):
        q = haar_basis(n, r, np.random.default_rng(seed))
        g = np.random.default_rng(seed).standard_normal((n, r))
        assert np.max(np.abs(q.T @ q - np.eye(r))) <= 1e-13
        assert np.all(np.diag(q.T @ g) > 0.0)
        if 2 * r <= n:
            assert np.max(np.abs(q - qr_basis(n, r, np.random.default_rng(seed)))) <= 1e-12


@HAAR_SHAPES
def test_haar_basis_stack_equals_per_item_calls(n, r):
    stack = haar_basis(n, r, [np.random.default_rng(seed) for seed in range(5)])
    assert stack.shape == (5, n, r)
    for seed, q in enumerate(stack):
        assert np.array_equal(q, haar_basis(n, r, np.random.default_rng(seed)))
