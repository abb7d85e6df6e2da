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
from .linalg import as_matrix, mt
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


def _chebyshev(g, x, degree: int, b, top) -> np.ndarray:
    """p(g) x for p(t) = T_degree(l(t)) / T_degree(l(top)), l(t) = 2t/b - 1.

    T_degree is the Chebyshev polynomial, so |p| <= 1 / T_degree(l(top)) on
    [0, b] and p grows fast above b, up to p(top) = 1. The three-term
    recurrence carries the scaling of Zhou and Saad (2007, J. Comput. Phys.
    219), which keeps every iterate within the magnitude of ``x``. ``g`` is a
    stack (k, n, n) and ``x`` (k, n, m); ``b`` and ``top`` hold one float per
    item. The scalar recurrence runs per item in floats, ahead of the stacked
    products.
    """
    table = []
    for bi, ti in zip(b.tolist(), top.tolist()):
        c = e = 0.5 * bi
        sigma1 = e / (ti - c)
        sigma = sigma1
        row = [c, sigma1 / e]
        for _ in range(degree - 1):
            sigma_next = 1.0 / (2.0 / sigma1 - sigma)
            row += [2.0 * sigma_next / e, sigma * sigma_next]
            sigma = sigma_next
        table.append(row)
    c, first, *steps = np.array(table).T[:, :, None, None]
    y = (g @ x - c * x) * first
    for alpha, beta in zip(steps[::2], steps[1::2]):
        y, x = (g @ y - c * y) * alpha - beta * x, y
    return y


def _columns(a, idx) -> np.ndarray:
    """``a[i][:, idx[i]]`` for each matrix ``a[i]`` of a stack (k, n, p).

    Laid out column by column, as 2-D fancy indexing ``a[:, idx]`` lays out its
    result: BLAS then takes the same path for an item of a stack as for the
    2-D call, so the stack's products are those of the 2-D calls bit for bit.
    """
    return mt(a[np.arange(len(a))[:, None], :, idx])


def _filter_degree(b: float, top: float) -> int:
    """The filter degree for bound ``b`` under the gain cap; 0 if ``b`` is outside (0, top)."""
    if not 0.0 < b < top:
        return 0
    return min(FILTER_DEGREE, int(FILTER_GAIN_DIGITS / math.log10(4.0 * top / b)))


def _filtered_top(g, rank: int, b):
    """Certified leading ``rank`` eigenvectors of each PSD matrix in the stack ``g``.

    ``g`` is (k, n, n) and ``b`` holds k floats; ``b[i]`` must bound the
    (rank+1)-th eigenvalue of ``g[i]`` from above. Returns ``(x, ok)``: ``x``
    (k, n, rank) holds the eigenvectors, descending, of the items with
    ``ok[i]`` True, and is unset elsewhere.

    Each pass applies a Chebyshev filter that damps [0, b] to the block,
    orthonormalizes it and takes Ritz pairs (theta, X) with residual
    R = g X - X theta. An item's pairs are accepted if theta_r - |R|_F > b:
    then ``rank`` eigenvalues lie within |R| of the theta (Kahan), all above
    b, so they are the leading ones; and if |R|_F / (theta_r - b), which
    bounds sin(angle) to the leading eigenspace (Davis and Kahan, 1970), is
    below FILTER_TOL. Certified items leave the block; the rest go on. The
    block starts from the columns of ``g`` with the largest diagonal entries.
    An item fails after FILTER_PASSES passes without a certificate, or if
    ``b`` is outside (0, trace g) or so small that the filter's gain would
    leave the floating-point range. Items filtered to different degrees run
    in separate groups, and each item is computed as it would be alone.
    """
    top = g.trace(0, -2, -1)   # >= the largest eigenvalue of a PSD g
    degrees = np.array([_filter_degree(bi, ti) for bi, ti in zip(b.tolist(), top.tolist())])
    x_out = np.empty(g.shape[:-1] + (rank,))
    ok = np.zeros(len(g), dtype=bool)
    for degree in set(degrees.tolist()) - {0}:
        act = np.flatnonzero(degrees == degree)
        ga = g if act.size == len(g) else g[act]
        x = _columns(ga, np.argsort(-ga.diagonal(0, -2, -1), axis=-1, kind="stable")[:, :rank])
        for _ in range(FILTER_PASSES):
            x = np.linalg.qr(_chebyshev(ga, x, degree, b[act], top[act]))[0]
            gx = ga @ x
            theta, w = np.linalg.eigh(mt(x) @ gx)
            theta, w = theta[:, ::-1], w[:, :, ::-1]
            x = x @ w
            resid = (gx @ w - x * theta[:, None, :]).reshape(len(act), 1, -1)
            # |R|_F as a dot product, which is how the 2-D norm sums it.
            res = np.sqrt(resid @ mt(resid))[:, 0, 0]
            low = theta[:, -1]
            good = (low - res > b[act]) & (res / (low - b[act]) < FILTER_TOL)
            x_out[act[good]] = x[good]
            ok[act[good]] = True
            if good.all():
                break
            act, ga, x = act[~good], ga[~good], x[~good]
    return x_out, ok


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

    ``y`` may also be a stack (..., n, p); then ``basis`` is (..., n, rank),
    ``values`` is (..., rank), and ``tail_bound`` bounds every item. The
    stack runs through one stacked call per step, each item certified on its
    own, and each item's result is bit for bit that of truncating it alone.
    """
    y = as_matrix(y, stack=True)
    lead, (n, p) = y.shape[:-2], y.shape[-2:]
    if rank < 0 or rank > min(n, p):
        raise InvalidInput(f"rank must lie in [0, {min(n, p)}], got {rank}")
    if rank == 0:
        return Truncation(np.zeros(lead + (n, 0)), np.zeros(lead + (0,)))
    y = y.reshape((-1, n, p))
    scale = np.max(np.abs(y), axis=(1, 2))
    if not scale.all():
        scale[scale == 0.0] = 1.0
    z = y / scale[:, None, None]
    g = z @ mt(z) if n <= p else mt(z) @ z
    ok = None
    if tail_bound is not None and tail_bound > 0:
        t = float(tail_bound) / scale
        x, ok = _filtered_top(g, rank, t * t)
    if ok is None or not ok.any():
        basis, values = _left_vectors(z, _top_eigh(g, rank))
    elif ok.all():
        basis, values = _left_vectors(z, x)
    else:
        # Certified and uncertified items go through separate calls, so that
        # each item meets the operand layout of its own 2-D call.
        basis = np.empty((len(z), n, rank))
        values = np.empty((len(z), rank))
        basis[ok], values[ok] = _left_vectors(z[ok], x[ok])
        basis[~ok], values[~ok] = _left_vectors(z[~ok], _top_eigh(g[~ok], rank))
    order = np.argsort(-values, axis=-1, kind="stable")
    values = scale[:, None] * values[np.arange(len(z))[:, None], order]
    return Truncation(_columns(basis, order).reshape(lead + (n, rank)),
                      values.reshape(lead + (rank,)))


def _top_eigh(g, rank: int) -> np.ndarray:
    """The leading ``rank`` eigenvectors of each symmetric ``g`` by ``eigh``, descending."""
    return np.linalg.eigh(g)[1][..., :-rank - 1:-1]


def _left_vectors(z, vectors):
    """(basis, values) of ``truncate`` from the leading Gram eigenvectors, unsorted.

    Leading eigenvectors come first: the QR must orthogonalize round-off
    columns against the signal ones, not the other way round.
    """
    basis = vectors
    if z.shape[-2] > z.shape[-1]:
        q, rr = np.linalg.qr(z @ basis)
        basis = q * np.copysign(1.0, np.diagonal(rr, axis1=-2, axis2=-1))[..., None, :]
    return basis, np.linalg.norm(mt(basis) @ z, axis=-1)
