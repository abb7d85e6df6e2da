"""Dense subspace primitives: orthonormal bases, principal angles, Haar frames.

Conventions used throughout the package:

* a matrix is a 2-D ``float64`` array with finite entries;
* a subspace of R^n is represented by an ``(n, r)`` array with orthonormal
  columns (``r = 0`` encodes the trivial subspace ``{0}``);
* a stack of matrices is an ``(..., n, p)`` array, one matrix per leading
  index; routines that take stacks say so;
* spectra of products of projections are always computed from the cross-Gram
  ``U1.T @ U2`` of the bases, never from ``n x n`` projector matrices.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatch, InvalidInput

RANK_TOL = 1e-10


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array, raising InvalidInput otherwise."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {a.shape}")
    if 0 in a.shape:
        raise InvalidInput(f"{name} must have at least one row and column, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def as_count(value, name: str) -> int:
    """``value`` as an int, raising InvalidInput unless it is an integral number."""
    try:
        if value == int(value):   # a string never equals an int
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def orthonormalize(a) -> np.ndarray:
    """Orthonormal basis of col(a); numerical rank set by ``sigma_i > RANK_TOL * sigma_1``."""
    a = as_matrix(a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return np.zeros((a.shape[0], 0))
    r = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return u[:, :r]


def _check_basis_pair(u1, u2):
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.ndim != 2 or u2.ndim != 2:
        raise InvalidInput("bases must be 2-D arrays")
    if u1.shape[0] != u2.shape[0]:
        raise DimensionMismatch(
            f"ambient dimensions differ: {u1.shape[0]} vs {u2.shape[0]}"
        )
    return u1, u2


def principal_spectrum(u1, u2) -> np.ndarray:
    """Cosines of the principal angles between col(u1) and col(u2), descending.

    Equal to the non-zero singular values of the product of the two
    projections, computed as the singular values of the cross-Gram
    ``u1.T @ u2`` and clamped into [0, 1]. Empty if either basis has rank 0.
    """
    u1, u2 = _check_basis_pair(u1, u2)
    if u1.shape[1] == 0 or u2.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(u1.T @ u2, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def subspace_distance(u1, u2) -> float:
    """Spectral norm of the projector difference, i.e. sin of the largest principal angle.

    Subspaces of different rank are at distance 1 (some direction of the larger
    one is orthogonal to the whole smaller one). Computed from the residual
    (I - P1) u2 rather than from sqrt(1 - cos^2), which loses half the
    significant digits near zero distance.
    """
    u1, u2 = _check_basis_pair(u1, u2)
    if u1.shape[1] != u2.shape[1]:
        return 1.0
    if u1.shape[1] == 0:
        return 0.0
    r12 = spectral_norm(u2 - u1 @ (u1.T @ u2))
    r21 = spectral_norm(u1 - u2 @ (u2.T @ u1))
    return float(min(max(r12, r21), 1.0))


def mt(a) -> np.ndarray:
    """Transpose of every matrix in a stack: (..., n, p) -> (..., p, n)."""
    return a.swapaxes(-1, -2)


def spectral_norm(a):
    """Largest singular value, 0 for an empty matrix; an array of them for a stack."""
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 2, axis=(-2, -1)) if a.size else np.zeros(a.shape[:-2])
    return float(norm) if a.ndim == 2 else norm


def haar_basis(n: int, r: int, rng) -> np.ndarray:
    """Haar-distributed orthonormal (n, r) frame: the Q factor of a Gaussian G whose R has a positive diagonal.

    That Q is unique, so its law does not depend on how it is computed. For
    2r <= n it is ``G L^-T``, with L the Cholesky factor of ``G^T G``
    (CholeskyQR): a Gaussian that tall is well conditioned, so Q is
    orthonormal to round-off. Wider frames, up to square, take the
    Householder QR with its signs fixed: over 10,000 draws CholeskyQR kept
    |Q^T Q - I| within 2.9e-15 at 50 x 25 but reached 1.9e-4 at 40 x 40.

    ``rng`` is a Generator, or a sequence of them for a stack (len(rng), n, r)
    of independent frames, frame i drawn from ``rng[i]`` as a single call
    would draw it; the factorizations then run as one stacked call.
    """
    n, r = as_count(n, "n"), as_count(r, "r")
    if r > n:
        raise InvalidInput(f"rank {r} exceeds ambient dimension {n}")
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else rng
    q = np.empty((len(rngs), n, r))
    if r > 0:
        for gen, out in zip(rngs, q):
            gen.standard_normal(out=out)
        if 2 * r <= n:
            q = q @ mt(np.linalg.inv(np.linalg.cholesky(mt(q) @ q)))
        else:
            q = sign_fixed_qr(q)
    return q[0] if single else q


def sign_fixed_qr(a) -> np.ndarray:
    """Householder Q of each matrix of ``a``, column i signed by ``copysign(1, R_ii)``: that Q of a Gaussian is Haar."""
    q, rr = np.linalg.qr(a)
    return q * np.copysign(1.0, np.diagonal(rr, axis1=-2, axis2=-1))[..., None, :]


def reduced_coords(*bases: np.ndarray):
    """Coordinates of several same-ambient bases in an orthonormal basis of their joint span.

    Returns ``(w, coords)`` where ``w`` is (n, m) orthonormal and
    ``coords[k] = w.T @ bases[k]``. Any operator built from the input
    projections has identical non-zero spectrum in these m-dimensional
    coordinates, which keeps all spectral-norm evaluations O(m^3).
    """
    n = bases[0].shape[0]
    for b in bases:
        if b.shape[0] != n:
            raise DimensionMismatch("bases must share the ambient dimension")
    stacked = np.hstack(bases)
    w = orthonormalize(stacked) if stacked.shape[1] else np.zeros((n, 0))
    return w, [w.T @ b for b in bases]
