"""Marginal signal-rank selection by optimal hard thresholding of singular values.

The rule keeps singular values above ``omega(beta) * median(singular values)``
with ``omega(beta) = 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43`` and
``beta = min(n, p) / max(n, p)``. The same median, divided by the median
singular value of a unit-variance pure-noise matrix of the same shape
(obtained from the Marchenko-Pastur law), yields the noise-level estimate
``sigma_hat`` consumed by the bootstrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_matrix
from .noise import edge_quadrature

MP_NODES = 400


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


def _mp_support(beta: float):
    return (1.0 - np.sqrt(beta)) ** 2, (1.0 + np.sqrt(beta)) ** 2


def marchenko_pastur_median(beta: float, nodes: int = MP_NODES) -> float:
    """Median of the Marchenko-Pastur eigenvalue distribution, beta in (0, 1].

    Found by bisecting the CDF, integrated by :func:`ppdecomp.noise.edge_quadrature`
    with ``nodes`` nodes, to 1/2 within 1e-9.
    """
    if not 0.0 < beta <= 1.0:
        raise InvalidInput(f"beta must lie in (0, 1], got {beta}")
    a, b = _mp_support(beta)
    lo, hi = a, b
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if edge_quadrature(a, b, mid, lambda xt: 2.0 * np.pi * beta * xt, nodes) < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_median_sv(n: int, p: int) -> float:
    """Median singular value of an n x p matrix of i.i.d. unit-variance noise.

    Computed as sqrt(max(n, p) * m_beta) with m_beta the Marchenko-Pastur
    median at beta = min(n, p) / max(n, p).
    """
    if n < 1 or p < 1:
        raise InvalidInput("n and p must be >= 1")
    beta = min(n, p) / max(n, p)
    return float(np.sqrt(max(n, p) * marchenko_pastur_median(beta)))


def select_rank(y) -> RankSelection:
    """Apply the hard-threshold rank rule to a data matrix.

    The rule is orientation-invariant: the aspect ratio is always taken with
    the smaller dimension on top, and the spectrum does not depend on
    transposition.
    """
    y = as_matrix(y)
    n, p = y.shape
    s = np.linalg.svd(y, compute_uv=False)
    beta = min(n, p) / max(n, p)
    mp_sv = mp_median_sv(n, p)
    y_med = float(np.median(s))
    threshold = gd_coefficient(beta) * y_med
    # Numerical-rank floor: on noise-free data the median is 0 and the
    # threshold with it; round-off singular values must not count.
    rank = int(np.count_nonzero(s > max(threshold, 1e-12 * s[0])))
    return RankSelection(rank=rank, threshold=threshold, sigma_hat=y_med / mp_sv,
                         beta=beta, mp_median=mp_sv)


class Truncation(NamedTuple):
    """Leading left singular subspace and values of a data matrix at rank r."""

    basis: np.ndarray     # (n, r) leading left singular vectors
    values: np.ndarray    # r leading singular values, descending


def truncate(y, rank: int) -> Truncation:
    """Leading rank-``rank`` left singular vectors and values of ``y``, from its smaller Gram matrix.

    With ``z = y / max|y|``, which cannot overflow when squared, ``basis`` holds
    the leading eigenvectors of ``z z^T`` if n <= p, else a sign-fixed QR of
    ``z V_r`` with ``V_r`` those of ``z^T z``; accuracy degrades with
    s_1 / (s_r + s_{r+1}) (Halko, Martinsson and Tropp, 2011). ``values`` are the
    row norms of ``basis^T y``: square roots of the Gram eigenvalues would
    leave the surplus values of a rank-deficient ``y`` near 1e-8 s_1, above the
    1e-12 s_1 floor of the rank rule. The best rank-``rank`` approximation of
    ``y`` in Frobenius norm (Eckart-Young) is ``basis @ (basis.T @ y)``; it is
    not formed here. In exact arithmetic the result depends on ``y`` only
    through ``y y^T`` (up to column signs), so any matrix with the same
    ``y y^T`` may stand in for ``y``.
    """
    y = as_matrix(y)
    n, p = y.shape
    if rank < 0 or rank > min(n, p):
        raise InvalidInput(f"rank must lie in [0, {min(n, p)}], got {rank}")
    if rank == 0:
        return Truncation(np.zeros((n, 0)), np.zeros(0))
    scale = np.max(np.abs(y)) or 1.0
    z = y / scale
    # Leading eigenvectors first: the QR must orthogonalize round-off columns
    # against the signal ones, not the other way round.
    basis = np.linalg.eigh(z @ z.T if n <= p else z.T @ z)[1][:, :-rank - 1:-1]
    if n > p:
        q, rr = np.linalg.qr(z @ basis)
        basis = q * np.copysign(1.0, np.diag(rr))
    values = np.linalg.norm(basis.T @ z, axis=1)
    order = np.argsort(-values, kind="stable")
    return Truncation(basis[:, order], scale * values[order])
