"""Marginal signal-rank selection by optimal hard thresholding of singular values.

The rule keeps singular values above ``omega(beta) * median(singular values)``
with ``omega(beta) = 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43`` and
``beta = min(n, p) / max(n, p)``. The same median, divided by the median
singular value of a unit-variance pure-noise matrix of the same shape
(obtained from the Marchenko-Pastur law), yields the noise-level estimate
``sigma_hat`` consumed by the bootstrap.

Each view is factored once, by one ``eigh`` of its smaller Gram matrix
(``view_spectrum``), which ``select_rank`` and ``truncate`` both read. The
bootstrap re-truncates its replicates itself (:mod:`ppdecomp.bootstrap`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_count, as_matrix, mt, sign_fixed_qr
from .noise import edge_quadrature

# Numerical-rank floor, relative to s_1: on noise-free data the median is 0,
# and the threshold with it, so round-off singular values must not count.
RANK_FLOOR = 1e-12


@dataclass(frozen=True)
class RankSelection:
    """Outcome of the hard-threshold rank rule for one data matrix."""

    rank: int
    threshold: float      # on the singular-value scale of the data
    sigma_hat: float      # estimated noise standard deviation
    beta: float           # aspect ratio min(n,p)/max(n,p)
    mp_median: float      # median singular value of a unit-variance noise matrix


def gd_coefficient(beta: float) -> float:
    """omega(beta), the cubic approximation of the optimal threshold coefficient."""
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


@functools.lru_cache(maxsize=64)
def marchenko_pastur_median(beta: float) -> float:
    """Median of the Marchenko-Pastur eigenvalue distribution, beta in (0, 1].

    Found by bisecting the CDF, integrated by :func:`ppdecomp.noise.edge_quadrature`,
    to 1/2 within 1e-9. The result is cached: the bisection takes
    milliseconds, and a decomposition asks again for each view of the same
    shape.
    """
    if not 0.0 < beta <= 1.0:
        raise InvalidInput(f"beta must lie in (0, 1], got {beta}")
    a, b = (1.0 - np.sqrt(beta)) ** 2, (1.0 + np.sqrt(beta)) ** 2
    lo, hi = a, b
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if edge_quadrature(a, b, mid, lambda xt: 2.0 * np.pi * beta * xt) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_median_sv(n: int, p: int) -> float:
    """Median singular value of an n x p matrix of i.i.d. unit-variance noise.

    Computed as sqrt(max(n, p) * m_beta) with m_beta the Marchenko-Pastur
    median at beta = min(n, p) / max(n, p).
    """
    n, p = as_count(n, "n"), as_count(p, "p")
    if n < 1 or p < 1:
        raise InvalidInput("n and p must be >= 1")
    beta = min(n, p) / max(n, p)
    return float(np.sqrt(max(n, p) * marchenko_pastur_median(beta)))


class ViewSpectrum(NamedTuple):
    """All m = min(n, p) singular values of an n x p matrix, descending, with unit left directions.

    ``left`` (n, m) is orthonormal if n <= p. If n > p, a column whose value is
    round-off of the leading one may be far from orthogonal, and is 0 if 0.
    """

    left: np.ndarray
    values: np.ndarray
    shape: tuple


def view_spectrum(y, overwrite=False) -> ViewSpectrum:
    """The singular values and left singular directions of ``y``, from one ``eigh``.

    The Gram matrix, ``z z^T`` if n <= p and ``z^T z`` else, is formed from
    ``z = y / max|y|``, which cannot overflow when squared (``overwrite``
    scales ``y`` itself). The directions are the eigenvectors of ``z z^T``,
    or ``z V / values`` for those V of ``z^T z``; the values are the norms of
    ``left^T z`` or ``z V``, as square roots of Gram eigenvalues would leave
    those of a rank-deficient ``y`` near 1e-8 s_1, above the rank floor.
    """
    y = as_matrix(y)
    n, p = y.shape
    scale = max(y.max(), -y.min()) or 1.0
    z = np.divide(y, scale, out=y if overwrite else None)
    if n <= p:
        left = np.linalg.eigh(z @ z.T)[1][:, ::-1]
        # Over n-column slices of z, so that no second n x p array is formed.
        values = np.sqrt(sum(np.sum(np.square(mt(left) @ z[:, j:j + n]), axis=1)
                             for j in range(0, p, n)))
    else:
        left = z @ np.linalg.eigh(z.T @ z)[1][:, ::-1]
        values = np.linalg.norm(left, axis=0)
        left /= np.where(values > 0.0, values, 1.0)
    order = np.argsort(-values, kind="stable")
    return ViewSpectrum(left[:, order], scale * values[order], (n, p))


def select_rank(y) -> RankSelection:
    """Apply the hard-threshold rank rule to a data matrix or its ``view_spectrum``.

    The rule is orientation-invariant: the aspect ratio puts the smaller
    dimension on top, and the spectrum does not depend on transposition.
    """
    spec = y if isinstance(y, ViewSpectrum) else view_spectrum(y)
    n, p = spec.shape
    s = spec.values
    beta = min(n, p) / max(n, p)
    mp_sv = mp_median_sv(n, p)
    y_med = float(np.median(s))
    threshold = gd_coefficient(beta) * y_med
    rank = int(np.count_nonzero(s > max(threshold, RANK_FLOOR * s[0])))
    return RankSelection(rank=rank, threshold=threshold, sigma_hat=y_med / mp_sv,
                         beta=beta, mp_median=mp_sv)


class Truncation(NamedTuple):
    """Leading left singular subspace and values of a data matrix at rank r."""

    basis: np.ndarray     # (n, r) leading left singular vectors
    values: np.ndarray    # r leading singular values, descending


def truncate(y, rank: int) -> Truncation:
    """Leading rank-``rank`` left singular vectors and values of ``y``, from its smaller Gram matrix.

    ``y`` may be a matrix or its :func:`view_spectrum`, which is computed
    once and shared with :func:`select_rank`. ``basis`` holds the leading
    ``rank`` left singular directions, through a sign-fixed QR if n > p;
    ``values`` are the leading singular values. The best rank-``rank``
    approximation of ``y`` in Frobenius norm (Eckart-Young) is
    ``basis @ (basis.T @ y)``; it is not formed here. In exact arithmetic the
    result depends on ``y`` only through ``y y^T`` (up to column signs).
    """
    spec = y if isinstance(y, ViewSpectrum) else view_spectrum(y)
    n, p = spec.shape
    rank = as_count(rank, "rank")
    if rank < 0 or rank > min(n, p):
        raise InvalidInput(f"rank must lie in [0, {min(n, p)}], got {rank}")
    basis = spec.left[:, :rank]
    if n > p:
        # Leading directions first: the QR must orthogonalize round-off
        # columns against the signal ones, not the other way round.
        basis = sign_fixed_qr(basis)
    return Truncation(basis, spec.values[:rank])
