"""Marginal signal-rank selection by optimal hard thresholding of singular values.

The rule keeps singular values above ``omega(beta) * median(singular values)``
with ``omega(beta) = 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43`` and
``beta = min(n, p) / max(n, p)``. The same median, divided by the median
singular value of a unit-variance pure-noise matrix of the same shape
(obtained from the Marchenko-Pastur law), yields the noise-level estimate
``sigma_hat`` consumed by the bootstrap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_matrix
from .noise import edge_quadrature

MP_NODES = 400

# The certified top-r eigensolver of ``truncate`` (see ``_filtered_top``),
# set on bootstrap replicates of 167 x (1572, 375) views at ranks 16,16, of
# 300 x (90, 120, 150) views and of the Table-1 cells, one BLAS thread.
# Filter degree: at 8 every replicate certified in two passes, and a
# 167 x 167 Gram took 0.8 ms against 3.4 ms for ``eigh``; degree 6 took
# 0.8 ms but needed a third pass on 1 % of replicates, degree 4 failed on
# 1-4 %, and degree 10 took 1.1 ms.
FILTER_DEGREE = 8
# Passes before falling back to ``eigh``: one more than the two that every
# measured replicate needed; more passes only delay the fallback.
FILTER_PASSES = 3
# Certified bound on the sine of the largest angle between the returned and
# the true leading eigenspace; on a seeded snapshot of 90 decompositions it
# moved the bootstrap's epsilon_1 by at most 1.4e-15 relative.
FILTER_TOL = 1e-12
# The filter's gain at the top of the spectrum is kept below 10^this, so no
# damped component of a filtered block leaves the floating-point range.
FILTER_GAIN_DIGITS = 150


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


def _chebyshev(g, x, degree: int, b: float, top: float) -> np.ndarray:
    """p(g) x for p(t) = T_degree(l(t)) / T_degree(l(top)), l(t) = 2t/b - 1.

    T_degree is the Chebyshev polynomial, so |p| <= 1 / T_degree(l(top)) on
    [0, b] and p grows fast above b, up to p(top) = 1. The three-term
    recurrence carries the scaling of Zhou and Saad (2007, J. Comput. Phys.
    219), which keeps every iterate within the magnitude of ``x``.
    """
    c = e = 0.5 * b
    sigma1 = e / (top - c)
    sigma = sigma1
    y = (g @ x - c * x) * (sigma1 / e)
    for _ in range(degree - 1):
        sigma_next = 1.0 / (2.0 / sigma1 - sigma)
        y, x = (g @ y - c * y) * (2.0 * sigma_next / e) - (sigma * sigma_next) * x, y
        sigma = sigma_next
    return y


def _filtered_top(g, rank: int, b: float):
    """Certified leading ``rank`` eigenvectors of the PSD matrix ``g``, descending, or None.

    ``b`` must bound the (rank+1)-th eigenvalue of ``g`` from above. Each
    pass applies a Chebyshev filter that damps [0, b] to the block,
    orthonormalizes it and takes Ritz pairs (theta, X) with residual
    R = g X - X theta. The pairs are accepted if theta_r - |R|_F > b: then
    ``rank`` eigenvalues lie within |R| of the theta (Kahan), all above b, so
    they are the leading ones; and if |R|_F / (theta_r - b), which bounds
    sin(angle) to the leading eigenspace (Davis and Kahan, 1970), is below
    FILTER_TOL. The block starts from the columns of ``g`` with the largest
    diagonal entries. None after FILTER_PASSES passes without a certificate,
    or if ``b`` is outside (0, trace g) or so small that the filter's gain
    would leave the floating-point range.
    """
    top = float(np.trace(g))  # >= the largest eigenvalue of a PSD g
    if not 0.0 < b < top:
        return None
    degree = min(FILTER_DEGREE, int(FILTER_GAIN_DIGITS / math.log10(4.0 * top / b)))
    if degree < 1:
        return None
    x = g[:, np.argsort(-np.diag(g), kind="stable")[:rank]]
    for _ in range(FILTER_PASSES):
        x = np.linalg.qr(_chebyshev(g, x, degree, b, top))[0]
        gx = g @ x
        theta, w = np.linalg.eigh(x.T @ gx)
        theta, w = theta[::-1], w[:, ::-1]
        x = x @ w
        res = float(np.linalg.norm(gx @ w - x * theta))
        if theta[-1] - res > b and res / (theta[-1] - b) < FILTER_TOL:
            return x
    return None


def truncate(y, rank: int, tail_bound=None) -> Truncation:
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

    ``tail_bound``, if given, must bound s_{rank+1} of ``y`` from above. The
    leading eigenvectors then come from a Chebyshev-filtered block iteration
    that damps the Gram spectrum below ``(tail_bound / max|y|)^2``, and are
    kept only under a certificate (see ``_filtered_top``): Kahan's residual
    bound places ``rank`` Gram eigenvalues above the damped range, and the
    Davis-Kahan bound puts the returned eigenvectors within sin-angle 1e-12 of
    the leading eigenspace. Without a certificate, and without a bound, they
    come from ``eigh``, so a bound that is 0, at least s_rank or never
    certified gives the bound-free result bit for bit.
    """
    y = as_matrix(y)
    n, p = y.shape
    if rank < 0 or rank > min(n, p):
        raise InvalidInput(f"rank must lie in [0, {min(n, p)}], got {rank}")
    if rank == 0:
        return Truncation(np.zeros((n, 0)), np.zeros(0))
    scale = np.max(np.abs(y)) or 1.0
    z = y / scale
    g = z @ z.T if n <= p else z.T @ z
    basis = None
    if tail_bound is not None and tail_bound > 0:
        t = float(tail_bound) / float(scale)
        basis = _filtered_top(g, rank, t * t)
    # Leading eigenvectors first: the QR must orthogonalize round-off columns
    # against the signal ones, not the other way round.
    if basis is None:
        basis = np.linalg.eigh(g)[1][:, :-rank - 1:-1]
    if n > p:
        q, rr = np.linalg.qr(z @ basis)
        basis = q * np.copysign(1.0, np.diag(rr))
    values = np.linalg.norm(basis.T @ z, axis=1)
    order = np.argsort(-values, kind="stable")
    return Truncation(basis[:, order], scale * values[order])
