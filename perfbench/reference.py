"""Computations the benchmark makes apart from ppdecomp.

The planted-structure generator, the closed-form noise edge, the
principal-angle cosines of each view's own SVD, the TPP/FDP/F scorer and the
output checks all use numpy directly and never call into ppdecomp, so a fault
in the program cannot hide itself by also bending its checker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHO_TOL = 1e-8        # orthonormality and joint/individual orthogonality
SPECTRUM_TOL = 1e-8     # product spectrum against the benchmark's own cosines
EDGE_RTOL = 1e-12       # noise threshold against sqrt(lambda_plus)


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass(frozen=True)
class Draw:
    """One planted multi-view draw and its truth."""

    views: list
    joint: np.ndarray
    individuals: list


def _frame(rng, n, r):
    q, rr = np.linalg.qr(rng.standard_normal((n, r)))
    return q * np.sign(np.diag(rr))


def planted_draw(rng, n, dims, joint_rank, individual_ranks, angle_deg, snr) -> Draw:
    """Joint plus individual column spaces, the paper's angle construction.

    Every individual space after the first is the first one's leading
    columns rotated by ``angle_deg`` towards fresh orthogonal directions.
    Signal singular values are U[1, 2], row spaces Haar, and Gaussian noise
    has level sigma_min(X_k) / (snr (sqrt(n) + sqrt(p_k))).
    """
    r1 = individual_ranks[0]
    q = _frame(rng, n, joint_rank + r1 + sum(individual_ranks[1:]))
    joint = q[:, :joint_rank]
    first = q[:, joint_rank:joint_rank + r1]
    individuals = [first]
    offset = joint_rank + r1
    phi = math.radians(angle_deg)
    for r in individual_ranks[1:]:
        fresh = q[:, offset:offset + r]
        offset += r
        individuals.append(math.cos(phi) * first[:, :r] + math.sin(phi) * fresh)
    views = []
    for p, ind in zip(dims, individuals):
        x = ((joint * rng.uniform(1.0, 2.0, joint_rank)) @ _frame(rng, p, joint_rank).T
             + (ind * rng.uniform(1.0, 2.0, ind.shape[1])) @ _frame(rng, p, ind.shape[1]).T)
        sigma_min = np.linalg.svd(x, compute_uv=False)[joint_rank + ind.shape[1] - 1]
        noise = sigma_min / (snr * (math.sqrt(n) + math.sqrt(p)))
        views.append(x + noise * rng.standard_normal((n, p)))
    return Draw(views=views, joint=joint, individuals=individuals)


def lambda_plus(q1: float, q2: float) -> float:
    """Upper edge of the random-projection product law, clipped to [0, 1]."""
    edge = q1 + q2 - 2.0 * q1 * q2 + 2.0 * math.sqrt(max(q1 * q2 * (1 - q1) * (1 - q2), 0.0))
    return min(max(edge, 0.0), 1.0)


def f_score(estimate, truth) -> float:
    """F of one subspace estimate from projector traces.

    TPP = tr(P_est P_true) / dim(true) and FDP = tr((I - P_true) P_est) /
    dim(est), with tr(P_est P_true) = ||truth^T estimate||_F^2, combined as
    2 (1 - FDP) TPP / (1 - FDP + TPP). Empty truth gives TPP = 1 and an empty
    estimate FDP = 0.
    """
    overlap = float(np.sum((truth.T @ estimate) ** 2))
    tpp = min(overlap / truth.shape[1], 1.0) if truth.shape[1] else 1.0
    fdp = min(max(1.0 - overlap / estimate.shape[1], 0.0), 1.0) if estimate.shape[1] else 0.0
    denom = 1.0 - fdp + tpp
    return 2.0 * (1.0 - fdp) * tpp / denom if denom > 0 else 0.0


def f_x10(result: dict, draw: Draw) -> float:
    """Ten times the mean F over the joint and every individual estimate."""
    scores = [f_score(result["joint"], draw.joint)]
    scores += [f_score(est, ind) for est, ind in zip(result["individuals"], draw.individuals)]
    return 10.0 * float(np.mean(scores))


def left_frames(views) -> list:
    """Each view's left singular vectors, from the benchmark's own SVD."""
    return [np.linalg.svd(y, full_matrices=False)[0] for y in views]


def check_result(result: dict, frames) -> None:
    """Raise CheckFailed unless ``result`` has every property the method guarantees.

    ``result`` holds ``joint``, ``individuals``, ``marginal_ranks``,
    ``joint_rank``, ``values``, ``bootstrap_threshold``, ``noise_threshold``
    and ``binding_pair``; ``frames`` are :func:`left_frames` of the views.
    """
    joint = result["joint"]
    n = joint.shape[0]
    if joint.shape[1] != result["joint_rank"]:
        raise CheckFailed(f"joint basis has {joint.shape[1]} columns, rank {result['joint_rank']}")
    for name, basis in [("joint", joint)] + [(f"individual {k}", b) for k, b in
                                             enumerate(result["individuals"])]:
        err = np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1])), initial=0.0)
        if err > ORTHO_TOL:
            raise CheckFailed(f"{name} basis is not orthonormal (max error {err:.3g})")
        if name != "joint":
            cross = np.max(np.abs(joint.T @ basis), initial=0.0)
            if cross > ORTHO_TOL:
                raise CheckFailed(f"{name} basis is not orthogonal to the joint (max {cross:.3g})")
    values = np.asarray(result["values"])
    cut = max(result["bootstrap_threshold"], result["noise_threshold"])
    above = int(np.count_nonzero(values > cut))
    if above != result["joint_rank"]:
        raise CheckFailed(f"{above} spectrum values above the cut, joint rank {result['joint_rank']}")
    i, j = result["binding_pair"]
    ranks = result["marginal_ranks"]
    edge = math.sqrt(lambda_plus(ranks[i] / n, ranks[j] / n))
    if abs(result["noise_threshold"] - edge) > EDGE_RTOL * max(edge, 1.0):
        raise CheckFailed(f"noise threshold {result['noise_threshold']!r} != sqrt(lambda_plus) {edge!r}")
    cosines = np.clip(np.linalg.svd(frames[i][:, :ranks[i]].T @ frames[j][:, :ranks[j]],
                                    compute_uv=False), 0.0, 1.0)
    if cosines.shape != values.shape or np.max(np.abs(cosines - values), initial=0.0) > SPECTRUM_TOL:
        raise CheckFailed("product spectrum differs from the principal-angle cosines of the views")
