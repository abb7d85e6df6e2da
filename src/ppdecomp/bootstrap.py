"""Rotational bootstrap for the joint-cluster threshold of the product spectrum.

Each replicate draws a fresh pair of left bases from the Haar measure,
re-orients the second so that its principal cosines against the first
reproduce the observed product spectrum, rebuilds noisy data around the
replicated signals, re-estimates the subspaces, and records the realized
perturbation. The mean over replicates estimates epsilon_1, the maximal
downward shift of the joint singular values.

A replicate of an n x p view is never formed, at full width or otherwise.
Once per pair, the noise e is factored by one ``eigh`` of its smaller Gram
matrix, as a view is (``view_spectrum``): e = P diag(sigma) F^T, with
m = min(n, p) singular values sigma. The replicate is

    y = U S (O V)^T + e,   O = [F F_perp],

with V its Haar (p, r) right basis; O V is Haar too, so y is an exact
replicate. In the right frame O, y reads U S V^T + P diag(sigma) [I 0], so
its Gram matrix, in P's coordinates for p >= n and in F's for p < n, is
diag(sigma^2) plus a term of rank 2r built from U S, V_m (the first m rows
of V) and P (Golub, 1973, SIAM Rev. 15, on modified eigenproblems); the rows
of V past m enter only through V^T V = I. This module's ``truncate`` takes
the replicates in this form (``SignalPlusNoise``), and no replicate needs an
m x m product unless its filtered eigensolver falls back to ``eigh``.
Neither F nor V is formed: ``_row_basis_rng`` draws V_m with the law it has
under V, in O(m r^2). Only the noise imputation and the noise frame, once
per pair, depend on p.

Because e is fixed for the pair, so is a bound on the replicate's tail,
s_{r+1}(y) <= |e|_2 = sigma_1 (Weyl). Where ``_tail_bound`` finds that the
certificate can be met, ``truncate`` is handed it and takes its basis from
a certified Chebyshev-filtered eigensolver instead of a full ``eigh``.

The replicated signal strengths are the observed singular values debiased
under the spiked noise model: an observed value y of an n x p view with noise
level sigma comes from a spike of strength s with

    y^2 = (s^2 + n sigma^2) (s^2 + p sigma^2) / s^2,

which is inverted for y above the noise edge sigma (sqrt(n) + sqrt(p)); at
or below the edge the estimate is 0 (the operator-norm shrinker of Gavish
and Donoho, 2017, Ann. Stat.). A column with zero strength carries no
signal, so it is not part of the replicate's true subspace: with marginal
ranks above the signal ranks, the replicate is still truncated at the
marginal ranks, but its surplus columns do not count as perturbation.

The naive variant skips the re-orientation step; with low rank-to-dimension
ratios its independently drawn bases are nearly orthogonal, which is why it
underestimates the perturbation.

Replicates run in blocks. Replicate b draws its Gaussians from its own
stream, ``derive_rng(seed, STREAM_REPLICATE, b)``, in a fixed order: the Haar
pair, then each view's row basis in ``canonical_order``, each view's
replicates re-truncated before the next one's are drawn. The work runs once
per block, as stacked numpy calls over a leading replicate axis: a small
replicate costs the interpreter about as much as LAPACK, and a block pays
that once. Every stacked step computes each replicate as it would in a
block of its own, bit for bit, so the estimate does not depend on the block
size (``_block_size``).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._rng import STREAM_NOISE, STREAM_REPLICATE, derive_rng
from .exceptions import BootstrapInfeasible, InvalidInput
from .linalg import as_count, haar_basis, mt, principal_spectrum, sign_fixed_qr
from .oracle import epsilon_pair
from .ranksel import RANK_FLOOR, Truncation, view_spectrum

VARIANTS = ("rotational", "naive")

# Replicates per block (see ``_block_size``). BLOCK_BYTES holds twelve
# bounded 167 x (1572, 375) replicates at ranks 16,16: with one BLAS thread
# and B = 96, ``estimate_epsilon1`` peaked under tracemalloc at 2.77, 2.87,
# 5.20 and 9.86 MB at 3, 6, 12 and 24 per block, 0.39 MB more per replicate
# from 12 to 24, and 0.43 MB counted. Per replicate they took
# 2.8, 2.6, 2.4 and 2.8 ms; 300 x (90, 150) at ranks 10, 8 took 2.1, 1.5,
# 1.4 and 1.3 ms, 50 x (80, 100) at 9, 8 1.2, 0.7, 0.7 and 0.6 ms.
BLOCK_BYTES = 5_440_000
BLOCK_REPLICATES = 12

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
class BootstrapConfig:
    """Replicate count, master seed, and variant selection."""

    replicates: int = 100
    seed: int = 0
    variant: str = "rotational"

    def __post_init__(self):
        object.__setattr__(self, "replicates", as_count(self.replicates, "replicates"))
        if self.replicates < 1:
            raise InvalidInput("replicates must be >= 1")
        if self.variant not in VARIANTS:
            raise InvalidInput(f"variant must be one of {VARIANTS}")


@dataclass(frozen=True)
class EpsilonEstimate:
    """Bootstrap estimate of epsilon_1 with its replicate values."""

    epsilon1_hat: float
    per_replicate: np.ndarray
    variant: str


def _haar_pair_rng(n, r1, r2, rng):
    """Mutually orthogonal Haar frames of ranks r1 and r2 in R^n, with r1 + r2 <= n.

    Taken as consecutive column blocks of one Haar (n, r1 + r2) frame from
    :func:`ppdecomp.linalg.haar_basis`, so the two frames are orthogonal by
    construction. With a sequence of generators for ``rng``, both are stacks.
    """
    u = haar_basis(n, r1 + r2, rng)
    return u[..., :r1], u[..., r1:]


def rotate_align(u1b, u2b, sigma_m) -> np.ndarray:
    """Re-orient ``u2b`` so its principal cosines against ``u1b`` equal ``sigma_m``.

    Column i of the result is ``sigma_m[i] * u1b[:, i] + sqrt(1 - sigma_m[i]^2)
    * u2b[:, i]`` for the first min(r1, r2) columns; remaining columns of
    ``u2b`` pass through unchanged. Inputs must be mutually orthogonal. They
    may also be stacks (..., n, r1) and (..., n, r2), each pair re-oriented
    as a 2-D call would.
    """
    u1b = np.asarray(u1b, dtype=float)
    u2b = np.asarray(u2b, dtype=float)
    m = min(u1b.shape[-1], u2b.shape[-1])
    sigma_m = np.asarray(sigma_m, dtype=float)
    if sigma_m.shape != (m,):
        raise InvalidInput(f"expected {m} alignment cosines, got {sigma_m.shape}")
    if not np.all((sigma_m >= 0.0) & (sigma_m <= 1.0)):
        raise InvalidInput("alignment cosines must lie in [0, 1]")
    if m > 0 and np.max(np.abs(mt(u1b) @ u2b)) > 1e-6:
        raise InvalidInput("rotate_align requires mutually orthogonal input bases")
    out = u2b.copy()
    out[..., :m] = u1b[..., :m] * sigma_m + u2b[..., :m] * np.sqrt(1.0 - sigma_m**2)
    return out


def _noise_replicate_rng(y, trunc: Truncation, sigma_hat, rng):
    """Adjusted noise estimate: the truncation residual plus imputed noise.

    The residual ``y - B (B^T y)``, with ``B = trunc.basis``, carries no
    energy along the estimated left signal directions ``B``; an independent
    Gaussian draw from ``rng`` at level ``sigma_hat``, placed along those
    directions, puts it back. The residual's orthogonal complement is
    untouched. Built as ``B (g - B^T y) + y``, so that the n x p result is
    the only n x p array it allocates.
    """
    if not 0.0 <= sigma_hat < math.inf:
        raise InvalidInput(f"sigma_hat must be finite and >= 0, got {sigma_hat}")
    basis = trunc.basis
    coef = -(basis.T @ y)
    r = basis.shape[1]
    if sigma_hat > 0.0 and r > 0:
        # Restore the noise energy removed with the truncated signal directions.
        coef += sigma_hat * rng.standard_normal((r, y.shape[1]))
    e = basis @ coef
    e += y
    return e


def _row_basis_rng(p, n, r, rng):
    """v_m = v[:m], m = min(n, p), of a Haar (p, r) frame v, drawn without forming v.

    The sign-fixed QR of a Gaussian G = [G_m; G_rest] is v = G R^-1, with R
    the upper Cholesky factor of G_m^T G_m + W and W = G_rest^T G_rest, so
    v_m = G_m R^-1. W is Wishart_r(p - m, I): for p - m >= r, W = L L^T
    with L its Bartlett factor (Bartlett, 1933; Anderson, 2003, ch. 7),
    lower triangular with sqrt(chi^2_{p-m-i}) on the diagonal and N(0, 1)
    below it; otherwise L = G_rest^T. Every step is O(m r^2). The rest of v
    is not needed: v_m^T v_m + v[m:]^T v[m:] = I. For p <= n this is
    :func:`ppdecomp.linalg.haar_basis`.

    As there, ``rng`` may be a sequence of generators: each draws its own
    Gaussians, and v_m is a stack over them.
    """
    m = min(n, p)
    if p == m:
        return haar_basis(p, r, rng)
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else rng
    d = p - m
    gm = np.empty((len(rngs), m, r))
    low = np.empty((len(rngs), min(d, r), r))
    chi2 = np.empty((len(rngs), r))
    for gen, gm_i, low_i, chi2_i in zip(rngs, gm, low, chi2):
        gen.standard_normal(out=gm_i)
        gen.standard_normal(out=low_i)
        if d >= r:
            chi2_i[:] = gen.chisquare(d - np.arange(r))
    if d >= r:
        low = np.tril(low, -1)
        low[:, np.arange(r), np.arange(r)] = np.sqrt(chi2)
    else:
        low = mt(low)
    c_inv = np.linalg.inv(np.linalg.cholesky(mt(gm) @ gm + low @ mt(low)))   # R^-T
    v_m = gm @ mt(c_inv)
    return v_m[0] if single else v_m


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

    def shifted(self, x, alpha, shift) -> np.ndarray:
        """alpha (g - shift I) x, with ``alpha`` and ``shift`` (k, 1, 1): the scalars go to the small factors."""
        out = self.l @ ((alpha * self.mid) @ (mt(self.l) @ x))
        out += (alpha[..., 0] * (self.d - shift[..., 0]))[..., None] * x
        return out

    def diagonal(self) -> np.ndarray:
        return self.d + np.sum((self.l @ self.mid) * self.l, axis=-1)

    def dense(self) -> np.ndarray:
        g = (self.l @ self.mid) @ mt(self.l)
        i = np.arange(g.shape[-1])
        g[:, i, i] += self.d
        return g


def _chebyshev(g: _Gram, x, degree: int, b, top) -> np.ndarray:
    """p(g) x for p(t) = T_degree(l(t)) / T_degree(l(top)), l(t) = 2t/b - 1; ``x`` is overwritten.

    T_degree is the Chebyshev polynomial, so |p| <= 1 / T_degree(l(top)) on
    [0, b] and p grows fast above b, up to p(top) = 1. The three-term
    recurrence carries the scaling of Zhou and Saad (2007, J. Comput. Phys.
    219), which keeps every iterate within the magnitude of ``x``. ``g`` is
    a stack of k Gram matrices and ``x`` a stack of blocks (k, m, b); ``b``
    and ``top`` hold one float per item. The scalar recurrence runs per item
    in floats, ahead of the stacked products. Each step
    ``alpha (g - c I) y - beta x`` is ``g.shifted(y, alpha, c)``, with the
    scalars on the small factors of g, less ``beta x`` in x's own memory.
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
    y = g.shifted(x, first, c)
    for alpha, beta in zip(steps[::2], steps[1::2]):
        x *= -beta
        x += g.shifted(y, alpha, c)
        x, y = y, x
    return y


def _filter_degree(b: float, top: float) -> int:
    """The highest filter degree for bound ``b`` under the gain cap; 0 if ``b`` is outside (0, top)."""
    if not 0.0 < b < top:
        return 0
    return min(max(FILTER_DEGREES), int(FILTER_GAIN_DIGITS / math.log10(4.0 * top / b)))


def _filtered_top(g: _Gram, rank: int, b):
    """Certified leading ``rank`` eigenvectors of each PSD matrix of the stack ``g``.

    ``g`` holds k matrices m x m and ``b`` k floats; ``b[i]`` must bound the
    (rank+1)-th eigenvalue of item i from above. Returns ``(x, ok, theta)``:
    ``x`` (k, m, rank) holds the Ritz vectors and ``theta`` (k, rank) the
    Ritz values, descending, of the items with ``ok[i]`` True, and both are
    unset elsewhere; ``g`` is only applied, not formed. Each theta is within
    |R|_F of an eigenvalue, and ``x^T g x = diag(theta)`` up to round-off.

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
    k = len(diag)
    top = diag.sum(axis=-1)   # the trace, >= the largest eigenvalue of a PSD g
    caps = np.array([_filter_degree(bi, ti) for bi, ti in zip(b.tolist(), top.tolist())])
    x_out = theta_out = None
    ok = np.zeros(k, dtype=bool)
    for cap in set(caps.tolist()) - {0}:
        act = np.flatnonzero(caps == cap)
        ga = g if act.size == k else g.take(act)
        x = ga.apply(ga.l[..., :rank])
        for degree in FILTER_DEGREES:
            x = np.linalg.qr(_chebyshev(ga, x, min(degree, cap), b[act], top[act]))[0]
            x, theta, res = _ritz(ga, x)
            low = theta[:, -1]
            good = (low - res > b[act]) & (res / (low - b[act]) < FILTER_TOL)
            if act.size == k and good.all():
                return x, good, theta   # the whole stack at once: no copy
            if x_out is None:
                x_out, theta_out = np.empty(diag.shape + (rank,)), np.empty((k, rank))
            x_out[act[good]] = x[good]
            theta_out[act[good]] = theta[good]
            ok[act[good]] = True
            if good.all():
                break
            act, ga, x = act[~good], ga.take(~good), x[~good]
    if x_out is None:
        x_out, theta_out = np.empty(diag.shape + (rank,)), np.empty((k, rank))
    return x_out, ok, theta_out


def _ritz(g: _Gram, x):
    """(X, theta, |R|_F): the Ritz pairs of each g on the orthonormal block x, descending, and their residual norms."""
    gx = g.apply(x)
    theta, w = np.linalg.eigh(mt(x) @ gx)
    theta, w = theta[:, ::-1], w[:, :, ::-1]
    x = x @ w
    resid = gx @ w
    resid -= x * theta[:, None, :]
    resid = resid.reshape(len(x), 1, -1)
    # |R|_F as a dot product, which is how the 2-D norm sums it.
    return x, theta, np.sqrt(resid @ mt(resid))[:, 0, 0]


def truncate(stack: SignalPlusNoise, rank: int, tail_bound=None) -> Truncation:
    """:func:`ppdecomp.ranksel.truncate` of each item of a replicate stack, from its factored Gram matrix.

    ``basis`` is (k, n, rank) and ``values`` (k, rank), each item bit for bit
    as truncating it as a stack of one. For the leading eigenvectors x, with
    eigenvalues theta, of G, the Gram matrix of an item over its scale c
    (``_factored_gram``), the basis is ``frame x`` if p >= n. If p < n it is
    ``y x = us (w^T x) + frame (noise * x)`` with its columns normalized, as
    ``(y x)^T (y x) = c^2 diag(theta)``: to round-off for a certified item,
    whose residual bounds the columns' overlaps; an ``eigh`` item, whose
    trailing columns may be round-off, takes the sign-fixed QR instead,
    leading columns first. ``values`` are ``c sqrt(theta)``, descending.

    ``tail_bound``, if given, must bound s_{rank+1} of every item from above.
    With ``rank`` at most 2r, the columns of L, the leading eigenvectors then
    come from ``_filtered_top``, which damps the Gram spectrum below
    ``(tail_bound / c)^2``, applies the Gram matrix in O(m r^2) and keeps
    only certified items. All other items take ``eigh`` of the formed m x m
    Gram matrix, so a bound that is 0, at least s_rank or never certified
    gives the bound-free result bit for bit.
    """
    n, m = stack.frame.shape
    k = len(stack.us)
    if rank < 0 or rank > m:
        raise InvalidInput(f"rank must lie in [0, {m}], got {rank}")
    if rank == 0:
        return Truncation(np.zeros((k, n, 0)), np.zeros((k, 0)))
    g, us, noise, scale = _factored_gram(stack)
    if tail_bound is not None and tail_bound > 0 and rank <= g.l.shape[-1]:
        t = float(tail_bound) / scale
        x, ok, theta = _filtered_top(g, rank, t * t)
    else:
        x, ok, theta = np.empty((k, m, rank)), np.zeros(k, dtype=bool), np.empty((k, rank))
    if not ok.all():
        lam, vec = np.linalg.eigh(g.take(~ok).dense())
        x[~ok], theta[~ok] = vec[..., :-rank - 1:-1], lam[..., :-rank - 1:-1]
    values = scale[:, None] * np.sqrt(np.maximum(theta, 0.0))
    if m == n:
        return Truncation(stack.frame @ x, values)
    basis = us @ (mt(stack.w) @ x)
    basis += stack.frame @ (noise[..., None] * x)
    if ok.all():
        basis /= np.linalg.norm(basis, axis=-2)[..., None, :]
    else:
        basis[ok] /= np.linalg.norm(basis[ok], axis=-2)[..., None, :]
        basis[~ok] = sign_fixed_qr(basis[~ok])
    return Truncation(basis, values)


def _factored_gram(y: SignalPlusNoise):
    """(g, us / c, noise / c, c): the Gram matrix ``g`` of each item of ``y`` over its scale c.

    c = max(max|us|, noise_1), so that no entry of the Gram matrix can
    overflow or underflow; ``noise / c`` is (k, m). With ``pu = frame^T us``
    and all quantities over c, the Gram matrix is diag(noise^2) + L M L^T
    with L of 2r columns: for p >= n it is ``frame^T y y^T frame``, with
    L = [pu, noise * w] and M = [[I, I], [I, 0]] (W^T W = I removes the rows
    of W past m); for p < n it is ``y^T y``, with L = [w, noise * pu] and
    M = [[us^T us, I], [I, 0]]; ``us / c`` is None for p >= n, as L holds pu.
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
        us = None
        l = np.concatenate([pu, noise[..., None] * w], axis=-1)
        mid[:, :r, :r] = eye
    else:
        l = np.concatenate([w, noise[..., None] * pu], axis=-1)
        mid[:, :r, :r] = mt(us) @ us
    return _Gram(noise * noise, l, mid), us, noise, scale


def _replicates(us, v_m, frame) -> SignalPlusNoise:
    """The replicates y = us (O v)^T + e as ``truncate`` takes them, stacked as ``us`` and ``v_m``.

    ``frame`` is the noise's ``view_spectrum``, e = P diag(sigma) F^T, and O
    completes F; in the frame O, y reads us v^T + P diag(sigma) [I 0].
    """
    return SignalPlusNoise(frame[0], frame[1], us, v_m)


def _block_size(n, r1, r2, p1, p2, bound1=None, bound2=None) -> int:
    """Replicates per block: BLOCK_BYTES over a replicate's footprint, within [1, BLOCK_REPLICATES].

    The footprint counts, for each view with m = min(n, p), the arrays a
    replicate holds at the peak of the block: three n x r (its Haar columns,
    its signal ``us`` and its basis), seven m x r (its row coordinates ``w``,
    the two of its Gram factor, and the filter's three Chebyshev iterates
    and its Ritz block) and, for a view without a tail bound, the m x m Gram
    matrix formed for ``eigh``. Against the growth of the tracemalloc peak
    per replicate from 12 to 24 per block, it is within 5 % on bounded tall
    and wide pairs, and from 5 % below to 37 % above where ``eigh`` runs:
    only one view's Gram matrix and its eigenvectors are live at a time.
    """
    footprint = 0
    for p, r, bound in ((p1, r1, bound1), (p2, r2, bound2)):
        m = min(n, p)
        footprint += 8 * (3 * n * r + 7 * m * r + (m * m if bound is None else 0))
    return max(1, min(BLOCK_REPLICATES, BLOCK_BYTES // footprint))


def _tail_bound(trunc: Truncation, k: int, noise):
    """noise[0] = |e|_2, the bound handed to ``truncate`` for a view's replicates, or None.

    ``noise`` holds the singular values of the pair's noise e. A replicate
    U S V^T + e whose signal has k <= r nonzero strengths has
    s_{r+1} <= |e|_2 (Weyl), so the bound is always valid; it is passed only
    where the filtered eigensolver can certify: every retained column is
    signal (k == r), the noise is above the rank rule's round-off floor
    (``RANK_FLOOR`` s_1), and the smallest retained value clears it by half
    again. Elsewhere the filter would fall back to ``eigh`` after wasted passes.
    """
    values, noise_norm = trunc.values, float(noise[0])
    if k == values.size and RANK_FLOOR * values[0] < noise_norm and 1.5 * noise_norm < values[-1]:
        return noise_norm
    return None


def _signal_strengths(trunc: Truncation, sigma_hat: float, n: int, p: int) -> np.ndarray:
    """Debiased spike strengths of the retained singular values, 0 at or below the edge.

    ``trunc`` must retain at least one value. ``trunc.values`` is descending
    and the inversion is increasing, so the non-zero strengths form a prefix.
    Values within round-off of zero relative to the leading one (the rank
    floor ``RANK_FLOOR`` of :mod:`ppdecomp.ranksel`) count as noise even when
    ``sigma_hat`` is 0.
    """
    y = trunc.values
    edge = sigma_hat * (np.sqrt(n) + np.sqrt(p))
    signal = y > max(edge, RANK_FLOOR * y[0])
    out = np.zeros_like(y)
    if not signal[0]:
        return out
    # In units of the leading value, so that no power of sigma_hat can
    # overflow or underflow however the view is scaled.
    u2 = (y[signal] / y[0]) ** 2
    v2 = (sigma_hat / y[0]) ** 2
    a = u2 - (n + p) * v2
    disc = np.maximum((u2 - (np.sqrt(n) + np.sqrt(p)) ** 2 * v2)
                      * (u2 - (np.sqrt(n) - np.sqrt(p)) ** 2 * v2), 0.0)
    out[signal] = y[0] * np.sqrt(0.5 * (a + np.sqrt(disc)))
    return out


def canonical_order(views, truncs) -> list[int]:
    """Indices of ``views`` in a deterministic order, independent of caller order and view scale.

    Views are ordered by width, rank, and retained spectrum relative to its
    leading value, rounded to 8 decimals so that the round-off of rescaling a
    view cannot reorder them. Only views that tie on all three, such as a
    view and a multiple of it, append the SHA-256 digest of their bytes.
    """
    keys = []
    for y, trunc in zip(views, truncs):
        v = trunc.values
        shape = np.round(v / v[0], 8) if v.size and v[0] > 0 else v
        keys.append((y.shape[1], v.size, tuple(shape)))
    keys = [key + (hashlib.sha256(np.ascontiguousarray(y)).digest(),) if keys.count(key) > 1
            else key for key, y in zip(keys, views)]
    return sorted(range(len(keys)), key=keys.__getitem__)


def estimate_epsilon1(y1, y2, trunc1: Truncation, trunc2: Truncation,
                      sigma1: float, sigma2: float, cfg: BootstrapConfig) -> EpsilonEstimate:
    """Bootstrap estimate of epsilon_1 for two views and their truncations.

    ``trunc1``/``trunc2`` are the outputs of :func:`ppdecomp.ranksel.truncate`
    at the selected marginal ranks, and ``sigma1``/``sigma2`` the per-view
    noise-level estimates. Deterministic given ``cfg.seed``; the naive and
    rotational variants consume identical random streams, so paired A/B runs
    are reproducible. The result does not depend on the order of the views
    (``canonical_order``).
    """
    ys, truncs = [np.asarray(y1, float), np.asarray(y2, float)], [trunc1, trunc2]
    n = ys[0].shape[0]
    if ys[1].shape[0] != n:
        raise InvalidInput("views must share the row dimension")
    views = [(ys[k], truncs[k], (sigma1, sigma2)[k]) for k in canonical_order(ys, truncs)]
    widths = [y.shape[1] for y, _, _ in views]
    ranks = [trunc.basis.shape[1] for _, trunc, _ in views]
    b_reps = cfg.replicates
    if min(ranks) == 0:
        return EpsilonEstimate(0.0, np.zeros(b_reps), cfg.variant)
    if sum(ranks) > n:
        raise BootstrapInfeasible(f"cannot embed ranks {ranks[0]} + {ranks[1]} orthogonally "
                                  f"in dimension {n}; lower the marginal ranks")

    sigma_m = principal_spectrum(views[0][1].basis, views[1][1].basis)
    strengths = [_signal_strengths(trunc, sigma, n, y.shape[1]) for y, trunc, sigma in views]
    counts = [int(np.count_nonzero(s)) for s in strengths]
    # Each noise is scaled in place and dropped once framed, the wider view's
    # first: one n x p array at a time, beside the narrower view's frame.
    frames = [view_spectrum(_noise_replicate_rng(*views[k], derive_rng(cfg.seed, STREAM_NOISE, k)),
                            True) for k in (1, 0)][::-1]
    bounds = [_tail_bound(t, k, frame[1]) for (_, t, _), k, frame in zip(views, counts, frames)]

    vals = np.zeros(b_reps)
    block = _block_size(n, *ranks, *widths, *bounds)
    for start in range(0, b_reps, block):
        rngs = [derive_rng(cfg.seed, STREAM_REPLICATE, b)
                for b in range(start, min(start + block, b_reps))]
        u = list(_haar_pair_rng(n, *ranks, rngs))
        if cfg.variant == "rotational":
            u[1] = rotate_align(u[0], u[1], sigma_m)
        # One view at a time: its row basis and scaled signal die before the
        # next view's row basis is drawn from the same generators.
        u_hat = [truncate(_replicates(ub * s, _row_basis_rng(p, n, r, rngs), frame), r, bound).basis
                 for ub, s, p, r, frame, bound in zip(u, strengths, widths, ranks, frames, bounds)]
        eps1 = epsilon_pair(u[0][..., :counts[0]], u[1][..., :counts[1]], *u_hat)[0]
        vals[start:start + len(rngs)] = np.minimum(eps1, 1.0)
        # Free the block before the next one is drawn, or two blocks are live.
        del u, u_hat

    return EpsilonEstimate(epsilon1_hat=float(vals.mean()), per_replicate=vals,
                           variant=cfg.variant)
