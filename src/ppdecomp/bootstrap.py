"""Rotational bootstrap for the joint-cluster threshold of the product spectrum.

Each replicate draws a fresh pair of left bases from the Haar measure,
re-orients the second so that its principal cosines against the first
reproduce the observed product spectrum, rebuilds noisy data around the
replicated signals, re-estimates the subspaces with ``truncate``, and records
the realized perturbation. The mean over replicates estimates epsilon_1,
the maximal downward shift of the joint singular values.

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
of V past m enter only through V^T V = I. ``truncate`` takes the replicates
in this form (``SignalPlusNoise``), and no replicate needs an m x m product
unless its filtered eigensolver falls back to ``eigh``. Neither F nor V is
formed: ``_row_basis_rng`` draws V_m with the law it has under V, in
O(m r^2). Only the noise imputation and the noise frame, once per pair,
depend on p.

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
pair, then the row basis of the first view, then that of the second. The rest
of the work (frames, re-truncation, epsilon) runs once per block, as stacked
numpy calls over a leading replicate axis: a small replicate costs the
interpreter about as much as LAPACK, and a block pays that once. Every
stacked step computes each replicate as it would in a block of its own, bit
for bit, so the estimate does not depend on the block size
(``_block_size``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ._rng import STREAM_NOISE, STREAM_REPLICATE, derive_rng
from .exceptions import BootstrapInfeasible, InvalidInput
from .linalg import haar_basis, mt, principal_spectrum
from .oracle import epsilon_pair
from .ranksel import SignalPlusNoise, Truncation, truncate, view_spectrum

VARIANTS = ("rotational", "naive")

# Replicates per block (see ``_block_size``). BLOCK_BYTES bounds the counted
# footprint, not the memory: the filter's stacked temporaries are left out.
# 2 MiB holds twelve bounded 167 x (1572, 375) replicates at ranks 16,16
# (0.17 MB counted each). At 3, 6, 12 and 24 per block, one BLAS thread, they
# took 3.7, 3.6, 3.1 and 3.3 ms each, and ``estimate_epsilon1`` (B = 96)
# peaked at 2.8, 3.5, 6.4 and 12.0 MB under tracemalloc, about 0.46 MB per
# replicate; 300 x (90, 150) took 2.6, 2.1, 1.8 and 1.7 ms, 50 x (80, 100)
# 1.4, 0.9, 0.8 and 0.7 ms.
BLOCK_BYTES = 2 << 20
BLOCK_REPLICATES = 12


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, master seed, and variant selection."""

    replicates: int = 100
    seed: int = 0
    variant: str = "rotational"

    def __post_init__(self):
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
    if np.any(sigma_m < 0.0) or np.any(sigma_m > 1.0):
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
    if sigma_hat < 0:
        raise InvalidInput("sigma_hat must be >= 0")
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


def _replicates(us, v_m, frame) -> SignalPlusNoise:
    """The replicates y = us (O v)^T + e as ``truncate`` takes them, stacked as ``us`` and ``v_m``.

    ``frame`` is the noise's ``view_spectrum``, e = P diag(sigma) F^T, and O
    completes F; in the frame O, y reads us v^T + P diag(sigma) [I 0].
    """
    return SignalPlusNoise(frame[0], frame[1], us, v_m)


def _block_size(n, r1, r2, p1, p2, bound1=None, bound2=None) -> int:
    """Replicates per block: BLOCK_BYTES over a replicate's footprint, within [1, BLOCK_REPLICATES].

    The footprint is the bytes, for each view with m = min(n, p), of the
    replicate's signal ``us`` (n x r), its row coordinates ``w`` (m x r),
    the 2r columns of its Gram factor (m x 2r) and, for a view without a
    tail bound, the m x m Gram matrix formed for ``eigh``. It leaves out the
    filter's stacked temporaries (``_chebyshev``'s iterates, the products of
    ``_Gram.apply``, each pass's QR and ``eigh``), about twice as much again.
    """
    footprint = 0
    for p, r, bound in ((p1, r1, bound1), (p2, r2, bound2)):
        m = min(n, p)
        footprint += 8 * (n * r + 3 * m * r + (m * m if bound is None else 0))
    return max(1, min(BLOCK_REPLICATES, BLOCK_BYTES // footprint))


def _tail_bound(trunc: Truncation, k: int, noise):
    """noise[0] = |e|_2, the bound handed to ``truncate`` for a view's replicates, or None.

    ``noise`` holds the singular values of the pair's noise e. A replicate
    U S V^T + e whose signal has k <= r nonzero strengths has
    s_{r+1} <= |e|_2 (Weyl), so the bound is always valid; it is passed only
    where the filtered eigensolver can certify: every retained column is
    signal (k == r), the noise is above the rank rule's round-off floor
    1e-12 s_1, and the smallest retained value clears it by half again.
    Elsewhere the filter would fall back to ``eigh`` after wasted passes.
    """
    values, noise_norm = trunc.values, float(noise[0])
    if k == values.size and 1e-12 * values[0] < noise_norm and 1.5 * noise_norm < values[-1]:
        return noise_norm
    return None


def _signal_strengths(trunc: Truncation, sigma_hat: float, n: int, p: int) -> np.ndarray:
    """Debiased spike strengths of the retained singular values, 0 at or below the edge.

    ``trunc`` must retain at least one value. ``trunc.values`` is descending
    and the inversion is increasing, so the non-zero strengths form a prefix.
    Values within round-off of zero relative to the leading one (the rank
    floor of :mod:`ppdecomp.ranksel`) count as noise even when ``sigma_hat``
    is 0.
    """
    y = trunc.values
    edge = sigma_hat * (np.sqrt(n) + np.sqrt(p))
    signal = y > max(edge, 1e-12 * y[0])
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


def _canonical_order(y1, trunc1, sigma1, y2, trunc2, sigma2):
    """Deterministic ordering of the two views, independent of caller order and view scale.

    Views are ordered by width, rank, and retained spectrum relative to its
    leading value, rounded to 8 decimals so that the round-off of rescaling a
    view cannot reorder them. Only views that tie on all three, such as a
    view and a multiple of it, fall back to their bytes.
    """
    def key(y, trunc):
        v = trunc.values
        shape = np.round(v / v[0], 8) if v.size and v[0] > 0 else v
        return (y.shape[1], v.size, tuple(shape))
    key1, key2 = key(y1, trunc1), key(y2, trunc2)
    if key1 == key2:
        key1, key2 = (hashlib.sha256(np.ascontiguousarray(y)).digest() for y in (y1, y2))
    if key2 < key1:
        return (y2, trunc2, sigma2, y1, trunc1, sigma1)
    return (y1, trunc1, sigma1, y2, trunc2, sigma2)


def estimate_epsilon1(y1, y2, trunc1: Truncation, trunc2: Truncation,
                      sigma1: float, sigma2: float, cfg: BootstrapConfig) -> EpsilonEstimate:
    """Bootstrap estimate of epsilon_1 for two views and their truncations.

    ``trunc1``/``trunc2`` are the outputs of :func:`ppdecomp.ranksel.truncate`
    at the selected marginal ranks, and ``sigma1``/``sigma2`` the per-view
    noise-level estimates. Deterministic given ``cfg.seed``; the naive and
    rotational variants consume identical random streams, so paired A/B runs
    are reproducible. The result does not depend on the order of the views.
    """
    y1 = np.asarray(y1, float)
    y2 = np.asarray(y2, float)
    y1, trunc1, sigma1, y2, trunc2, sigma2 = _canonical_order(
        y1, trunc1, sigma1, y2, trunc2, sigma2)
    n = y1.shape[0]
    r1 = trunc1.basis.shape[1]
    r2 = trunc2.basis.shape[1]
    if y2.shape[0] != n:
        raise InvalidInput("views must share the row dimension")
    b_reps = cfg.replicates
    if min(r1, r2) == 0:
        return EpsilonEstimate(0.0, np.zeros(b_reps), cfg.variant)
    if r1 + r2 > n:
        raise BootstrapInfeasible(
            f"cannot embed ranks {r1} + {r2} orthogonally in dimension {n}; "
            "lower the marginal ranks"
        )

    sigma_m = principal_spectrum(trunc1.basis, trunc2.basis)
    s1 = _signal_strengths(trunc1, sigma1, n, y1.shape[1])
    s2 = _signal_strengths(trunc2, sigma2, n, y2.shape[1])
    k1 = int(np.count_nonzero(s1))
    k2 = int(np.count_nonzero(s2))
    # Each noise is scaled in place and dropped once framed: one n x p at a time.
    frame2 = view_spectrum(_noise_replicate_rng(y2, trunc2, sigma2,
                                                derive_rng(cfg.seed, STREAM_NOISE, 1)), True)
    frame1 = view_spectrum(_noise_replicate_rng(y1, trunc1, sigma1,
                                                derive_rng(cfg.seed, STREAM_NOISE, 0)), True)
    bound1 = _tail_bound(trunc1, k1, frame1[1])
    bound2 = _tail_bound(trunc2, k2, frame2[1])

    vals = np.zeros(b_reps)
    block = _block_size(n, r1, r2, y1.shape[1], y2.shape[1], bound1, bound2)
    for start in range(0, b_reps, block):
        rngs = [derive_rng(cfg.seed, STREAM_REPLICATE, b)
                for b in range(start, min(start + block, b_reps))]
        u1b, u2b = _haar_pair_rng(n, r1, r2, rngs)
        if cfg.variant == "rotational":
            u2b = rotate_align(u1b, u2b, sigma_m)
        v1b = _row_basis_rng(y1.shape[1], n, r1, rngs)
        v2b = _row_basis_rng(y2.shape[1], n, r2, rngs)
        u1b_hat = truncate(_replicates(u1b * s1, v1b, frame1), r1, bound1).basis
        u2b_hat = truncate(_replicates(u2b * s2, v2b, frame2), r2, bound2).basis
        eps1 = epsilon_pair(u1b[..., :k1], u2b[..., :k2], u1b_hat, u2b_hat)[0]
        vals[start:start + len(rngs)] = np.minimum(eps1, 1.0)

    return EpsilonEstimate(epsilon1_hat=float(vals.mean()), per_replicate=vals,
                           variant=cfg.variant)
