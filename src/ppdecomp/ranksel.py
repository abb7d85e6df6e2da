"""Marginal signal-rank selection by optimal hard thresholding of singular values.

The rule keeps singular values above ``omega(beta) * median(singular values)``
with ``omega(beta) = 0.56 beta^3 - 0.95 beta^2 + 1.82 beta + 1.43`` and
``beta = min(n, p) / max(n, p)``. The same median, divided by the median
singular value of a unit-variance pure-noise matrix of the same shape
(obtained from the Marchenko-Pastur law), yields the noise-level estimate
``sigma_hat`` consumed by the bootstrap.

Each view is factored once, by one ``eigh`` of its smaller Gram matrix
(``view_spectrum``), which ``select_rank`` and ``truncate`` both read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_matrix, mt
from .noise import edge_quadrature

MP_NODES = 400

# The certified top-r eigensolver of ``truncate`` (see ``_filtered_top``), set
# on the seed-1 benchmark replicates, one BLAS thread. Filter degree per pass:
# from the signal's directions a degree-8 pass stops at a round-off floor,
# 4e-13 to 4e-10 (degree 12 certified 29 of 1200 tall replicates); a degree-2
# pass then certified all 800 wide and 1200 tall ones and 1943 of 2000 Table-1
# ones (44 in the first pass, 13 in a third), in 13 Gram products against 19
# for two degree-8 passes from coordinate vectors. Degrees 6 then 2 certified
# none in the second pass; 6 then 3 left 15 % to a third.
FILTER_DEGREES = (8, 2, 8)
# Certified bound on the sine of the largest angle between the returned and
# the true leading eigenspace; on a seeded snapshot of 90 decompositions it
# moved the bootstrap's epsilon_1 by at most 1.4e-15 relative.
FILTER_TOL = 1e-12
# The filter's gain at the top of the spectrum is kept below 10^this, so no
# damped component of a filtered block leaves the floating-point range (at
# full degree, a noise-free stack bounded at 1e-150 s_1 underflows).
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


@functools.lru_cache(maxsize=64)
def marchenko_pastur_median(beta: float, nodes: int = MP_NODES) -> float:
    """Median of the Marchenko-Pastur eigenvalue distribution, beta in (0, 1].

    Found by bisecting the CDF, integrated by :func:`ppdecomp.noise.edge_quadrature`
    with ``nodes`` nodes, to 1/2 within 1e-9. The result is cached: the
    bisection takes milliseconds, and a decomposition asks again for each
    view of the same shape.
    """
    if not 0.0 < beta <= 1.0:
        raise InvalidInput(f"beta must lie in (0, 1], got {beta}")
    a, b = (1.0 - np.sqrt(beta)) ** 2, (1.0 + np.sqrt(beta)) ** 2
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
    # Numerical-rank floor: on noise-free data the median is 0 and the
    # threshold with it; round-off singular values must not count.
    rank = int(np.count_nonzero(s > max(threshold, 1e-12 * s[0])))
    return RankSelection(rank=rank, threshold=threshold, sigma_hat=y_med / mp_sv,
                         beta=beta, mp_median=mp_sv)


class Truncation(NamedTuple):
    """Leading left singular subspace and values of a data matrix at rank r."""

    basis: np.ndarray     # (n, r) leading left singular vectors
    values: np.ndarray    # r leading singular values, descending


class SignalPlusNoise(NamedTuple):
    """A stack of n x p matrices y_b = us_b W_b^T + frame diag(noise) [I_m 0], given by factors.

    With m = min(n, p), ``frame`` (n, m) and ``noise`` (m,) are the
    ``view_spectrum`` of a noise matrix, shared by the stack, in its own right
    frame. ``us`` is (k, n, r), and ``w`` (k, m, r) holds the first m rows of
    each item's orthonormal (p, r) W_b; the others enter y_b y_b^T only
    through W_b^T W_b = I.
    """

    frame: np.ndarray
    noise: np.ndarray
    us: np.ndarray
    w: np.ndarray


class _Gram(NamedTuple):
    """diag(d) + l mid l^T for each item of a stack, formed only on request.

    ``d`` is (k, m), ``l`` (k, m, c) and ``mid`` (k, c, c) symmetric. With
    c << m, a product with a block of b columns costs O(m c b) rather than
    the O(m^2 b) of the formed matrix, and the diagonal O(m c^2).
    """

    d: np.ndarray
    l: np.ndarray
    mid: np.ndarray

    def take(self, idx) -> "_Gram":
        return _Gram(self.d[idx], self.l[idx], self.mid[idx])

    def apply(self, x) -> np.ndarray:
        return self.d[..., None] * x + self.l @ (self.mid @ (mt(self.l) @ x))

    def diagonal(self) -> np.ndarray:
        return self.d + np.sum((self.l @ self.mid) * self.l, axis=-1)

    def dense(self) -> np.ndarray:
        g = (self.l @ self.mid) @ mt(self.l)
        i = np.arange(g.shape[-1])
        g[:, i, i] += self.d
        return g


def _chebyshev(apply, x, degree: int, b, top) -> np.ndarray:
    """p(g) x for p(t) = T_degree(l(t)) / T_degree(l(top)), l(t) = 2t/b - 1.

    T_degree is the Chebyshev polynomial, so |p| <= 1 / T_degree(l(top)) on
    [0, b] and p grows fast above b, up to p(top) = 1. The three-term
    recurrence carries the scaling of Zhou and Saad (2007, J. Comput. Phys.
    219), which keeps every iterate within the magnitude of ``x``. ``apply``
    multiplies a stack of blocks (k, m, b) by the k matrices g; ``b`` and
    ``top`` hold one float per item. The scalar recurrence runs per item in
    floats, ahead of the stacked products.
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
    y = (apply(x) - c * x) * first
    for alpha, beta in zip(steps[::2], steps[1::2]):
        y, x = (apply(y) - c * y) * alpha - beta * x, y
    return y


def _filter_degree(b: float, top: float) -> int:
    """The highest filter degree for bound ``b`` under the gain cap; 0 if ``b`` is outside (0, top)."""
    if not 0.0 < b < top:
        return 0
    return min(max(FILTER_DEGREES), int(FILTER_GAIN_DIGITS / math.log10(4.0 * top / b)))


def _filtered_top(g: _Gram, rank: int, b):
    """Certified leading ``rank`` eigenvectors of each PSD matrix of the stack ``g``.

    ``g`` holds k matrices m x m and ``b`` k floats; ``b[i]`` must bound the
    (rank+1)-th eigenvalue of item i from above. Returns ``(x, ok)``: ``x``
    (k, m, rank) holds the eigenvectors, descending, of the items with
    ``ok[i]`` True, and is unset elsewhere; ``g`` is only applied, not formed.

    The block starts from g times the first ``rank`` columns of ``g.l``,
    the signal's own directions (see ``_factored_gram``). Each pass applies
    a Chebyshev filter of that pass's degree in FILTER_DEGREES that damps
    [0, b] to the block, orthonormalizes it and takes Ritz pairs (theta, X)
    with residual R = g X - X theta. An item's pairs are accepted if
    theta_r - |R|_F > b: then ``rank`` eigenvalues lie within |R| of the
    theta (Kahan), all above b, so they are the leading ones; and if
    |R|_F / (theta_r - b), which bounds sin(angle) to the leading eigenspace
    (Davis and Kahan, 1970), is below FILTER_TOL. Certified items leave the
    block; the rest go on. An item fails after the last pass, or if ``b`` is
    outside (0, trace g) or so small that the filter's gain would leave the
    floating-point range. Items whose gain cap lowers their degrees run in
    separate groups, and each item is computed as it would be alone.
    """
    diag = g.diagonal()
    top = diag.sum(axis=-1)   # the trace, >= the largest eigenvalue of a PSD g
    caps = np.array([_filter_degree(bi, ti) for bi, ti in zip(b.tolist(), top.tolist())])
    x_out = np.empty(diag.shape + (rank,))
    ok = np.zeros(len(diag), dtype=bool)
    for cap in set(caps.tolist()) - {0}:
        act = np.flatnonzero(caps == cap)
        ga = g if act.size == len(diag) else g.take(act)
        x = ga.apply(ga.l[..., :rank])
        for degree in FILTER_DEGREES:
            x = np.linalg.qr(_chebyshev(ga.apply, x, min(degree, cap), b[act], top[act]))[0]
            gx = ga.apply(x)
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
            act, ga, x = act[~good], ga.take(~good), x[~good]
    return x_out, ok


def truncate(y, rank: int, tail_bound=None) -> Truncation:
    """Leading rank-``rank`` left singular vectors and values of ``y``, from its smaller Gram matrix.

    ``y`` may be a matrix or its :func:`view_spectrum`, which is computed
    once and shared with :func:`select_rank`. ``basis`` holds the leading
    ``rank`` left singular directions, through a sign-fixed QR if n > p;
    ``values`` are the leading singular values. The best rank-``rank``
    approximation of ``y`` in Frobenius norm (Eckart-Young) is
    ``basis @ (basis.T @ y)``; it is not formed here. In exact arithmetic the
    result depends on ``y`` only through ``y y^T`` (up to column signs).

    ``y`` may also be a :class:`SignalPlusNoise` stack of k items, the only
    input that takes a ``tail_bound`` (see ``_truncate_factored``). Then
    ``basis`` is (k, n, rank) and ``values`` (k, rank).
    """
    if isinstance(y, SignalPlusNoise):
        return _truncate_factored(y, rank, tail_bound)
    if tail_bound is not None:
        raise InvalidInput("tail_bound is taken only with a SignalPlusNoise stack")
    spec = y if isinstance(y, ViewSpectrum) else view_spectrum(y)
    n, p = spec.shape
    if rank < 0 or rank > min(n, p):
        raise InvalidInput(f"rank must lie in [0, {min(n, p)}], got {rank}")
    basis = spec.left[:, :rank]
    if n > p:
        # Leading directions first: the QR must orthogonalize round-off
        # columns against the signal ones, not the other way round.
        basis = _sign_fixed_qr(basis)
    return Truncation(basis, spec.values[:rank])


def _factored_gram(y: SignalPlusNoise):
    """(g, us / c, noise / c, c): the Gram matrix ``g`` of each item of ``y`` over its scale c.

    c = max(max|us|, noise_1), so that no entry of the Gram matrix can
    overflow or underflow; ``noise / c`` is (k, m). With ``pu = frame^T us``
    and all quantities over c, the Gram matrix is diag(noise^2) + L M L^T
    with L of 2r columns: for p >= n it is ``frame^T y y^T frame``, with
    L = [pu, noise * w] and M = [[I, I], [I, 0]] (W^T W = I removes the rows
    of W past m); for p < n it is ``y^T y``, with L = [w, noise * pu] and
    M = [[us^T us, I], [I, 0]].
    """
    frame, noise, us, w = y
    n, m = frame.shape
    k, r = us.shape[0], us.shape[-1]
    scale = np.maximum(np.max(np.abs(us), axis=(1, 2), initial=0.0), noise[0])
    scale[scale == 0.0] = 1.0
    us = us / scale[:, None, None]
    noise = noise / scale[:, None]
    pu = mt(frame) @ us
    eye = np.eye(r)
    mid = np.zeros((k, 2 * r, 2 * r))
    mid[:, :r, r:] = mid[:, r:, :r] = eye
    if m == n:
        l = np.concatenate([pu, noise[..., None] * w], axis=-1)
        mid[:, :r, :r] = eye
    else:
        l = np.concatenate([w, noise[..., None] * pu], axis=-1)
        mid[:, :r, :r] = mt(us) @ us
    return _Gram(noise * noise, l, mid), us, noise, scale


def _truncate_factored(y: SignalPlusNoise, rank: int, tail_bound) -> Truncation:
    """``truncate`` of each item of a factored stack, through its Gram matrix in factored form.

    The Gram matrix G of each item over its scale comes from
    ``_factored_gram``. For its leading eigenvectors x, the basis is
    ``frame x`` if p >= n, and the sign-fixed QR of
    ``y x = us (w^T x) + frame (noise * x)`` if p < n. ``values`` are the
    square roots of the Rayleigh quotients x^T G x.

    ``tail_bound``, if given, must bound s_{rank+1} of every item from above.
    With ``rank`` at most 2r, the columns of L, the leading eigenvectors then
    come from ``_filtered_top``, which damps the Gram spectrum below
    ``(tail_bound / c)^2``, applies the Gram matrix in O(m r^2) and keeps
    only certified items. All other items take ``eigh`` of the formed m x m
    Gram matrix, so a bound that is 0, at least s_rank or never certified
    gives the bound-free result bit for bit. Each item's result is bit for
    bit that of truncating it alone.
    """
    n, m = y.frame.shape
    k = len(y.us)
    if rank < 0 or rank > m:
        raise InvalidInput(f"rank must lie in [0, {m}], got {rank}")
    if rank == 0:
        return Truncation(np.zeros((k, n, 0)), np.zeros((k, 0)))
    g, us, noise, scale = _factored_gram(y)
    x, ok = np.empty((k, m, rank)), np.zeros(k, dtype=bool)
    if tail_bound is not None and tail_bound > 0 and rank <= g.l.shape[-1]:
        t = float(tail_bound) / scale
        x, ok = _filtered_top(g, rank, t * t)
    if not ok.all():
        # Leading eigenvectors first, as for a view: see ``truncate``.
        x[~ok] = np.linalg.eigh(g.take(~ok).dense())[1][..., :-rank - 1:-1]
    values = np.sqrt(np.maximum(np.sum(x * g.apply(x), axis=-2), 0.0))
    if m == n:
        basis = y.frame @ x
    else:
        basis = _sign_fixed_qr(us @ (mt(y.w) @ x) + y.frame @ (noise[..., None] * x))
    order = np.argsort(-values, axis=-1, kind="stable")
    return Truncation(np.take_along_axis(basis, order[:, None, :], axis=-1),
                      scale[:, None] * np.take_along_axis(values, order, axis=-1))


def _sign_fixed_qr(a) -> np.ndarray:
    """The Q factor of each matrix of ``a``, its columns signed so that R has a non-negative diagonal."""
    q, rr = np.linalg.qr(a)
    return q * np.copysign(1.0, np.diagonal(rr, axis1=-2, axis2=-1))[..., None, :]
