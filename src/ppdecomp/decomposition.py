"""Joint/individual subspace decomposition from the product-of-projections spectrum.

Pipeline for two views Y1, Y2 sharing their n rows:

1. factor each view once (``view_spectrum``); from that, pick its marginal
   rank and noise level by the hard-threshold rule (``select_rank``) and
   take its signal subspace and values at that rank (``truncate``);
2. bootstrap the perturbation bound epsilon_1 of the top spectral cluster;
3. bound random-alignment singular values analytically by sqrt(lambda_plus)
   with rank-to-dimension ratios q_k = rank_k / n;
4. the joint rank is the number of product singular values strictly above the
   larger of the two thresholds;
5. the joint subspace is spanned by the leading eigenvectors of the
   symmetrized product of the estimated projections;
6. each individual subspace is spanned by the leading directions of the
   estimated view projection after removing the joint component.

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
from .noise import NoiseSpectrumLaw, noise_law, singular_value_threshold
from .ranksel import select_rank, truncate, view_spectrum

# Upper cap on the bootstrap threshold 1 - epsilon1_hat. In exactly noiseless
# data epsilon1_hat underflows to ~1e-16 and the joint singular values equal 1
# only up to round-off; without the cap the strict ">" comparison would be a
# coin flip at machine precision.
BOOTSTRAP_THRESHOLD_CAP = 1.0 - 1e-9


@dataclass(frozen=True)
class ProductSpectrum:
    """Singular values of the estimated projection product plus both thresholds."""

    values: np.ndarray
    bootstrap_threshold: float
    noise_threshold: float


@dataclass(frozen=True)
class DecompositionResult:
    """Joint basis, per-view individual bases, ranks, and diagnostics.

    ``spectrum`` and ``epsilon1_hat`` describe the pair of views named by
    ``binding_pair``: with two views that is (0, 1); with more it is the first
    pair in canonical view order attaining the minimum pairwise joint rank.
    """

    joint: np.ndarray
    individuals: list[np.ndarray]
    marginal_ranks: tuple[int, ...]
    joint_rank: int
    spectrum: ProductSpectrum
    epsilon1_hat: float
    sigma_hats: tuple[float, ...]
    view_bases: list[np.ndarray]
    binding_pair: tuple[int, int] = (0, 1)


def product_spectrum(u1_hat, u2_hat, eps1_hat: float, law: NoiseSpectrumLaw) -> ProductSpectrum:
    """Spectrum of the product of the two estimated projections with thresholds attached.

    The noise threshold is :func:`ppdecomp.noise.singular_value_threshold` of ``law``.
    """
    if not eps1_hat >= 0.0:
        raise InvalidInput(f"eps1_hat must be >= 0, got {eps1_hat}")
    values = principal_spectrum(u1_hat, u2_hat)
    bootstrap_threshold = min(max(1.0 - eps1_hat, 0.0), BOOTSTRAP_THRESHOLD_CAP)
    return ProductSpectrum(values=values,
                           bootstrap_threshold=bootstrap_threshold,
                           noise_threshold=singular_value_threshold(law))


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


def individual_basis(uk_hat, joint, rk: int, r_joint: int) -> np.ndarray:
    """Leading rank_k - r_joint directions of the view projection outside the joint.

    Computed as the top left singular vectors of (I - P_joint) uk_hat, which
    are those of (I - P_joint) P_view, so the result is orthogonal to the
    joint basis by construction.
    """
    if r_joint > rk:
        raise InvalidInput(f"r_joint = {r_joint} exceeds the marginal rank {rk}")
    uk_hat = np.asarray(uk_hat, dtype=float)
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
        law = noise_law(marginal_ranks[i] / n, marginal_ranks[j] / n)
        spec = product_spectrum(truncs[i].basis, truncs[j].basis, est.epsilon1_hat, law)
        r_pair = joint_rank(spec)
        if best is None or r_pair < best[0]:
            best = (r_pair, (i, j), spec, est)
    r_joint, binding_pair, spectrum, eps_est = best

    joint = joint_basis([t.basis for t in truncs], r_joint)
    individuals = [individual_basis(t.basis, joint, r, r_joint)
                   for t, r in zip(truncs, marginal_ranks)]
    return DecompositionResult(
        joint=joint,
        individuals=individuals,
        marginal_ranks=marginal_ranks,
        joint_rank=r_joint,
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
