"""Joint/individual subspace decomposition from the product-of-projections spectrum.

Pipeline for two views Y1, Y2 sharing their n rows:

1. factor each view once (``view_spectrum``); from that, pick its marginal
   rank and noise level by the hard-threshold rule (``select_rank``) and
   take its signal subspace and values at that rank (``truncate``);
2. bootstrap the perturbation bound epsilon_1 of the top spectral cluster;
3. bound random-alignment singular values analytically by sqrt(lambda_plus)
   with q_k = rank_k / n, rank_k the column count of view k's estimated basis;
4. the joint rank is the number of product singular values strictly above the
   larger of the two thresholds;
5. the joint subspace is spanned by the leading eigenvectors of the
   symmetrized product of the estimated projections;
6. each individual subspace is spanned by the leading rank_k - r_joint
   directions of the view projection outside the joint subspace.

Each rank is read off the column count of its basis, never passed beside it.

More than two views are handled by taking the minimum pairwise joint rank and
the leading eigenvectors of the permutation-averaged projection product.

The oracle quantities used to check the estimator on simulated data live in
:mod:`ppdecomp.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np

from ._rng import STREAM_PAIR, derive_seed
from .bootstrap import BootstrapConfig, canonical_order, estimate_epsilon1
from .exceptions import DimensionMismatch, InvalidInput
from .linalg import as_count, as_matrix, principal_spectrum, reduced_coords
from .noise import noise_law, singular_value_threshold
from .ranksel import select_rank, truncate, view_spectrum

# Upper cap on the bootstrap threshold 1 - epsilon1_hat. In exactly noiseless
# data epsilon1_hat underflows to ~1e-16 and the joint singular values equal 1
# only up to round-off; without the cap the strict ">" comparison would be a
# coin flip at machine precision.
BOOTSTRAP_THRESHOLD_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class ProductSpectrum:
    """Singular values of the estimated projection product and both thresholds, all in [0, 1]."""

    values: np.ndarray
    bootstrap_threshold: float
    noise_threshold: float

    def __post_init__(self):
        checked = np.append(self.values, [self.bootstrap_threshold, self.noise_threshold])
        if not np.all((checked >= 0.0) & (checked <= 1.0)):
            raise InvalidInput("spectrum values and thresholds must be finite and lie in [0, 1]")


@dataclass(frozen=True)
class DecompositionResult:
    """Joint basis, per-view individual bases, and diagnostics.

    ``spectrum`` and ``epsilon1_hat`` describe the pair of views named by
    ``binding_pair``: with two views that is (0, 1); with more it is the first
    pair in canonical view order attaining the minimum pairwise joint rank.
    ``joint_rank`` and ``marginal_ranks`` are read-only, read off the bases.
    The joint and individual bases share one row count n >= 1, with one
    sigma_hat per view and ``binding_pair`` two distinct ``int`` view indices.
    """

    joint: np.ndarray
    individuals: list[np.ndarray]
    spectrum: ProductSpectrum
    epsilon1_hat: float
    sigma_hats: tuple[float, ...]
    view_bases: list[np.ndarray]
    binding_pair: tuple[int, int] = (0, 1)

    def __post_init__(self):
        rows = [b.shape[0] for b in [self.joint, *self.individuals]]
        views, pair = len(self.individuals), self.binding_pair
        if min(rows) < 1 or len(set(rows)) > 1:
            raise InvalidInput(f"the bases must share one row count n >= 1, got {rows}")
        if len(self.sigma_hats) != views:
            raise InvalidInput(f"{len(self.sigma_hats)} sigma_hats for {views} views, not one each")
        if len(pair) != 2 or pair[0] == pair[1] or not all(
                type(i) is int and 0 <= i < views for i in pair):
            raise InvalidInput(f"binding_pair {list(pair)} is not two distinct views of {views}")

    @property
    def joint_rank(self) -> int:
        return self.joint.shape[1]

    @property
    def marginal_ranks(self) -> tuple[int, ...]:
        return tuple(self.joint_rank + b.shape[1] for b in self.individuals)


def product_spectrum(u1_hat, u2_hat, eps1_hat: float) -> ProductSpectrum:
    """Spectrum of the product of the two estimated projections with thresholds attached.

    The noise threshold is ``singular_value_threshold(noise_law(r1 / n, r2 / n))``
    for bases of shapes (n, r1) and (n, r2), so 0 for a rank-0 basis.
    """
    if not eps1_hat >= 0.0:
        raise InvalidInput(f"eps1_hat must be >= 0, got {eps1_hat}")
    values = principal_spectrum(u1_hat, u2_hat)
    (n, r1), r2 = np.shape(u1_hat), np.shape(u2_hat)[1]
    bootstrap_threshold = min(max(1.0 - eps1_hat, 0.0), BOOTSTRAP_THRESHOLD_CAP)
    return ProductSpectrum(values=values,
                           bootstrap_threshold=bootstrap_threshold,
                           noise_threshold=singular_value_threshold(noise_law(r1 / n, r2 / n)))


def joint_rank(spectrum: ProductSpectrum) -> int:
    """Number of singular values strictly above the larger of the two thresholds."""
    cut = max(spectrum.noise_threshold, spectrum.bootstrap_threshold)
    return int(np.count_nonzero(spectrum.values > cut))


def _symmetrized_product(coords) -> np.ndarray:
    """Average of the projection product over all orderings of the views."""
    projs = [c @ c.T for c in coords]
    m = projs[0].shape[0]
    k = len(projs)
    t = np.zeros((m, m))
    for perm in permutations(range(k)):
        prod = projs[perm[0]]
        for idx in perm[1:]:
            prod = prod @ projs[idx]
        t += prod
    t /= math.factorial(k)
    return 0.5 * (t + t.T)


def joint_basis(bases, r_joint: int) -> np.ndarray:
    """Leading eigenvectors of the symmetrized projection product of K >= 2 bases.

    Solved as a reduced symmetric eigenproblem inside the span of the bases;
    the projectors are never materialized at ambient size.
    """
    r_joint = as_count(r_joint, "r_joint")
    if r_joint < 0:
        raise InvalidInput("r_joint must be >= 0")
    if r_joint > min(u.shape[1] for u in bases):
        raise InvalidInput("r_joint exceeds a marginal rank")
    n = bases[0].shape[0]
    if r_joint == 0:
        return np.zeros((n, 0))
    w, coords = reduced_coords(*bases)
    t = _symmetrized_product(coords)
    evals, evecs = np.linalg.eigh(t)
    top = evecs[:, np.argsort(evals)[::-1][:r_joint]]
    return w @ top


def individual_basis(uk_hat, joint) -> np.ndarray:
    """Leading rank_k - r_joint directions of the view projection outside the joint.

    rank_k and r_joint are the column counts of ``uk_hat`` and ``joint``. The
    directions are the top left singular vectors of (I - P_joint) uk_hat, which
    are those of (I - P_joint) P_view, so they are orthogonal to the joint basis.
    """
    uk_hat = np.asarray(uk_hat, dtype=float)
    rk, r_joint = uk_hat.shape[1], joint.shape[1]
    if r_joint > rk:
        raise InvalidInput(f"joint basis rank {r_joint} exceeds the marginal rank {rk}")
    outside = uk_hat - joint @ (joint.T @ uk_hat)
    return np.linalg.svd(outside, full_matrices=False)[0][:, :rk - r_joint]


def _resolve_ranks(selections, views, ranks):
    if ranks is None:
        return tuple(sel.rank for sel in selections)
    if isinstance(ranks, str):
        raise InvalidInput(f"ranks must be None or one integer per view, got {ranks!r}")
    ranks = tuple(as_count(r, "rank") for r in ranks)
    if len(ranks) != len(views):
        raise InvalidInput(f"expected {len(views)} ranks, got {len(ranks)}")
    for k, (r, y) in enumerate(zip(ranks, views)):
        if r < 0 or r > min(y.shape):
            raise InvalidInput(f"rank {r} out of range for view {k + 1} of shape {y.shape}")
    return ranks


def decompose_multiview(views, ranks=None,
                        bootstrap: BootstrapConfig | None = None) -> DecompositionResult:
    """Decomposition of K >= 2 views sharing their rows.

    ``ranks`` is ``None`` (each view's rank by ``select_rank``) or one
    integer per view. The joint rank is the minimum over all view pairs of
    the two-view joint rank; the reported spectrum, thresholds, and
    epsilon1_hat belong to the first pair attaining that minimum. Pairs run
    and are seeded in the views' ``canonical_order``, so the result does not
    depend on the order of ``views``. With K = 2 this coincides with
    :func:`decompose`. The joint basis averages the projection product over
    all K! orderings, so K >= 6 views are refused.
    """
    views = [as_matrix(y, f"view {k + 1}") for k, y in enumerate(views)]
    k_views = len(views)
    if k_views < 2:
        raise InvalidInput("need at least two views")
    n = views[0].shape[0]
    for idx, y in enumerate(views):
        if y.shape[0] != n:
            raise DimensionMismatch(
                f"view {idx + 1} has {y.shape[0]} rows, expected {n}")
    if k_views >= 6:
        raise InvalidInput(
            "permutation averaging over K! orderings is refused for K >= 6")
    bootstrap = bootstrap or BootstrapConfig()

    spectra = [view_spectrum(y) for y in views]
    selections = [select_rank(spec) for spec in spectra]
    marginal_ranks = _resolve_ranks(selections, views, ranks)
    sigma_hats = tuple(sel.sigma_hat for sel in selections)
    truncs = [truncate(spec, r) for spec, r in zip(spectra, marginal_ranks)]
    del spectra   # a tall view's directions are n x p

    order = canonical_order(views, truncs)   # pairs run and seed in it; i < j are caller indices
    best = None  # (joint rank, pair index, spectrum, epsilon estimate)
    for a, b in combinations(range(k_views), 2):
        i, j = sorted((order[a], order[b]))
        cfg_pair = replace(bootstrap, seed=derive_seed(bootstrap.seed, STREAM_PAIR, a, b))
        est = estimate_epsilon1(views[i], views[j], truncs[i], truncs[j],
                                sigma_hats[i], sigma_hats[j], cfg_pair)
        spec = product_spectrum(truncs[i].basis, truncs[j].basis, est.epsilon1_hat)
        r_pair = joint_rank(spec)
        if best is None or r_pair < best[0]:
            best = (r_pair, (i, j), spec, est)
    r_joint, binding_pair, spectrum, eps_est = best

    joint = joint_basis([t.basis for t in truncs], r_joint)
    return DecompositionResult(
        joint=joint,
        individuals=[individual_basis(t.basis, joint) for t in truncs],
        spectrum=spectrum,
        epsilon1_hat=eps_est.epsilon1_hat,
        sigma_hats=sigma_hats,
        view_bases=[t.basis for t in truncs],
        binding_pair=binding_pair,
    )


def decompose(y1, y2, ranks=None, bootstrap: BootstrapConfig | None = None) -> DecompositionResult:
    """Two-view decomposition; ``ranks`` is ``None`` (automatic) or an explicit pair.

    The result is invariant (up to the basis representation of the subspaces)
    to swapping the two views.
    """
    return decompose_multiview([y1, y2], ranks=ranks, bootstrap=bootstrap)
