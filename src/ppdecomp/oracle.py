"""Oracle quantities for a planted decomposition: perturbations, clusters, bounds.

The two error terms bounding the spectrum of the estimated projection
product M_hat = P_hat1 P_hat2 against the true product M = P1 P2 are

    epsilon_1 = || P1 (M_hat - M) P2 ||_2      (downward shift of the top cluster)
    epsilon_2 = || M_hat - M ||_2              (upward shift of the noise cluster)

Written as operator differences these are insensitive to the sign convention
chosen for the individual perturbations P_k - P_hat_k, and they are exactly
the quantities for which the cluster-interval bounds hold. They are evaluated
on cross-Grams of the input bases; no n x n projector is formed.

Given planted subspaces, the module also builds the three cluster intervals
and evaluates the estimation-error bounds used to check the guarantees on
simulated data. The bootstrap applies :func:`epsilon_pair` to its replicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (mt, principal_spectrum, reduced_coords, spectral_norm,
                     subspace_distance)

ANGLE_TOL = 1e-8


def epsilon_pair(u1, u2, u1_hat, u2_hat):
    """(epsilon_1, epsilon_2) for true bases (u1, u2) and estimates (u1_hat, u2_hat).

    epsilon_1 bounds how far the joint singular values of the estimated
    product can fall below 1; epsilon_2 bounds how far noise singular values
    can rise above 0. Both are evaluated exactly on cross-Grams of the bases,
    without a basis of their joint span:

        epsilon_1 = || a_1^T (u1_hat^T u2_hat) a_2 - u1^T u2 ||_2,   a_k = uk_hat^T uk,
        epsilon_2 = || R_L diag(u1_hat^T u2_hat, -u1^T u2) R_R^T ||_2,

    with [u1_hat, u1] = Q_L R_L and [u2_hat, u2] = Q_R R_R, where Q_L and Q_R
    have orthonormal columns and so drop out of the norm. As uk_hat is
    orthonormal, [uk_hat, uk] = [uk_hat, Q_k] [[I, a_k], [0, R_k]] with
    Q_k R_k the Householder QR of the n x k residual uk - uk_hat a_k, so
    only the residual is factored. The norm depends on R_k only through
    R_k^T R_k, the residual's Gram matrix, so even a round-off residual
    (u_hat = u) is fitted by some orthonormal Q_k orthogonal to uk_hat.

    The bases may also be stacks (..., n, r) with a shared leading shape;
    then both epsilons are arrays over it, each item equal to the pair of
    floats of its 2-D call.
    """
    g_hat = mt(u1_hat) @ u2_hat
    g = mt(u1) @ u2
    a1 = mt(u1_hat) @ u1
    a2 = mt(u2_hat) @ u2
    eps1 = spectral_norm(mt(a1) @ g_hat @ a2 - g)
    r_left = _r_factor(u1_hat, u1, a1)
    r_right = _r_factor(u2_hat, u2, a2)
    r1, r2 = g_hat.shape[-2:]
    eps2 = spectral_norm(r_left[..., :r1] @ g_hat @ mt(r_right[..., :r2])
                         - r_left[..., r1:] @ g @ mt(r_right[..., r2:]))
    return eps1, eps2


def _r_factor(u_hat, u, a):
    """[[I, a], [0, R]], the R factor of [u_hat, u] for orthonormal u_hat and a = u_hat^T u."""
    r, k = a.shape[-2:]
    out = np.zeros(a.shape[:-2] + (r + k, r + k))
    out[..., :r, :r] = np.eye(r)
    out[..., :r, r:] = a
    out[..., r:, r:] = np.linalg.qr(u - u_hat @ a, mode="r")
    return out


@dataclass(frozen=True)
class TruthOracle:
    """Cluster intervals of the product spectrum for a planted decomposition."""

    epsilon1: float
    epsilon2: float
    cluster_intervals: tuple[tuple[float, float], ...]
    joint_dim: int
    nonorth_rank: int
    tau_min: float
    tau_max: float


def truth_oracle(joint_true, individuals_true, eps1: float, eps2: float) -> TruthOracle:
    """Build the three cluster intervals from planted subspaces and oracle epsilons.

    The clusters of the estimated product spectrum are: dim(joint) values in
    [max(1 - eps1, 0), 1]; the non-orthogonally aligned individual values in
    [max(tau_min - eps1, 0), min(tau_max + eps2, 1)]; every remaining value in
    [0, min(eps2, 1)]. tau_min/tau_max are the extreme non-zero cosines
    between the two planted individual subspaces.
    """
    i1, i2 = individuals_true
    cosines = principal_spectrum(i1, i2)
    nonzero = cosines[cosines > ANGLE_TOL]
    nonorth_rank = int(nonzero.size)
    tau_max = float(nonzero[0]) if nonorth_rank else 0.0
    tau_min = float(nonzero[-1]) if nonorth_rank else 0.0
    intervals = (
        (max(1.0 - eps1, 0.0), 1.0),
        (max(tau_min - eps1, 0.0), min(tau_max + eps2, 1.0)),
        (0.0, min(eps2, 1.0)),
    )
    return TruthOracle(epsilon1=eps1, epsilon2=eps2, cluster_intervals=intervals,
                       joint_dim=joint_true.shape[1], nonorth_rank=nonorth_rank,
                       tau_min=tau_min, tau_max=tau_max)


@dataclass(frozen=True)
class Theorem2Report:
    """Estimation-error bounds versus realized subspace distances."""

    joint_bound: float
    individual_bounds: tuple[float, ...]
    joint_distance: float
    individual_distances: tuple[float, ...]
    epsilon1: float
    epsilon2: float
    tau_max: float
    hypothesis_ok: bool


def theorem2_bounds(joint_true, individuals_true, view_estimates,
                    joint_estimate, individual_estimates) -> Theorem2Report:
    """Evaluate the subspace estimation-error bounds on a planted instance.

    ``individuals_true[k]`` must be orthogonal to ``joint_true`` (as planted),
    so that [joint_true, individuals_true[k]] is an orthonormal basis of the
    k-th true signal column space. The joint bound divides the symmetrized
    product perturbation by the gap 1 - tau_max; the individual bound is twice
    the perturbation of the joint-complement view projection, valid when the
    marginal ranks are correctly specified. ``hypothesis_ok`` reports whether
    eps1 < 1 - tau_max - eps2, the condition under which the bounds are
    guaranteed to dominate.
    """
    x_bases = [np.hstack([joint_true, ind]) for ind in individuals_true]
    u1, u2 = x_bases
    v1_hat, v2_hat = view_estimates
    eps1, eps2 = epsilon_pair(u1, u2, v1_hat, v2_hat)

    tau_max = truth_oracle(joint_true, individuals_true, eps1, eps2).tau_max
    hypothesis_ok = eps1 < 1.0 - tau_max - eps2

    _, (c1, c2, d1, d2) = reduced_coords(u1, u2, v1_hat, v2_hat)
    r_joint_op = (d1 @ d1.T) @ (d2 @ d2.T) - (c1 @ c1.T) @ (c2 @ c2.T)
    sym_norm = spectral_norm(r_joint_op + r_joint_op.T)
    joint_bound = sym_norm / (1.0 - tau_max) if tau_max < 1.0 else float("inf")

    individual_bounds = []
    for uk, vk_hat in zip(x_bases, view_estimates):
        _, (ck, dk, gj, gj_hat) = reduced_coords(uk, vk_hat, joint_true, joint_estimate)
        pk = ck @ ck.T
        pk_hat = dk @ dk.T
        r_ind = (pk_hat - pk) - ((gj_hat @ gj_hat.T) @ pk_hat - (gj @ gj.T) @ pk)
        individual_bounds.append(2.0 * spectral_norm(r_ind))

    return Theorem2Report(
        joint_bound=joint_bound,
        individual_bounds=tuple(individual_bounds),
        joint_distance=subspace_distance(joint_true, joint_estimate),
        individual_distances=tuple(
            subspace_distance(ind, est)
            for ind, est in zip(individuals_true, individual_estimates)
        ),
        epsilon1=eps1,
        epsilon2=eps2,
        tau_max=tau_max,
        hypothesis_ok=hypothesis_ok,
    )
