"""Spectrum of the product of two independent Haar random projections.

For projections of ranks r1, r2 in R^n with aspect ratios q_k = r_k / n, the
squared singular values lambda of the product follow, as n grows, a law with
continuous density

    f(lambda) = sqrt((lambda_plus - lambda)(lambda - lambda_minus))
                / (2 pi lambda (1 - lambda))

supported on [lambda_minus, lambda_plus] with

    lambda_{+/-} = q1 + q2 - 2 q1 q2 +/- 2 sqrt(q1 q2 (1 - q1)(1 - q2)),

plus point masses A0 = 1 - min(q1, q2) at 0 and A1 = max(q1 + q2 - 1, 0)
at 1. The square root of the upper edge is the noise-filtering threshold on
the singular-value scale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput
from .linalg import as_count, haar_basis, principal_spectrum
from ._rng import derive_rng

QUADRATURE_NODES = 400   # of every edge quadrature: noise_cdf and the Marchenko-Pastur median


@dataclass(frozen=True)
class NoiseSpectrumLaw:
    """Asymptotic law of squared singular values of a random projection product."""

    q1: float
    q2: float
    lambda_minus: float
    lambda_plus: float
    mass_at_zero: float
    mass_at_one: float


def noise_law(q1: float, q2: float) -> NoiseSpectrumLaw:
    """Populate the law for rank-to-dimension ratios q1, q2 in [0, 1]."""
    if not (0.0 <= q1 <= 1.0 and 0.0 <= q2 <= 1.0):
        raise InvalidInput(f"q1, q2 must lie in [0, 1], got ({q1}, {q2})")
    mid = q1 + q2 - 2.0 * q1 * q2
    spread = 2.0 * np.sqrt(max(0.0, q1 * q2 * (1.0 - q1) * (1.0 - q2)))
    lam_minus = min(max(mid - spread, 0.0), 1.0)
    lam_plus = min(max(mid + spread, 0.0), 1.0)
    return NoiseSpectrumLaw(
        q1=float(q1),
        q2=float(q2),
        lambda_minus=float(lam_minus),
        lambda_plus=float(lam_plus),
        mass_at_zero=1.0 - min(q1, q2),
        mass_at_one=max(q1 + q2 - 1.0, 0.0),
    )


@functools.lru_cache(maxsize=None)
def _legendre():
    """Gauss-Legendre nodes and weights, read-only because every caller shares them."""
    t_nodes, t_weights = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    t_nodes.flags.writeable = t_weights.flags.writeable = False
    return t_nodes, t_weights


def edge_quadrature(a: float, b: float, x: float, denom) -> float:
    """Integral of sqrt((b - t)(t - a)) / denom(t) over t in [a, x], for a < x <= b.

    The substitution t = a + (b - a)(1 - cos u) / 2 turns the square root into
    half^2 sin(u)^2 with half = (b - a) / 2, which removes the endpoint
    behaviour (and a 1/t pole at a = 0); the integral over u is then taken by
    ``QUADRATURE_NODES``-point Gauss-Legendre quadrature.
    """
    half = 0.5 * (b - a)
    t_nodes, t_weights = _legendre()
    t_up = np.arccos(np.clip(1.0 - (x - a) / half, -1.0, 1.0))
    t = 0.5 * t_up * (t_nodes + 1.0)
    w = 0.5 * t_up * t_weights
    xt = a + half * (1.0 - np.cos(t))
    integrand = half**2 * np.sin(t) ** 2 / denom(xt)
    return float(np.sum(w * integrand))


def continuous_mass(law: NoiseSpectrumLaw) -> float:
    """Total weight of the continuous part: 1 - A0 - A1."""
    return 1.0 - law.mass_at_zero - law.mass_at_one


def noise_density(law: NoiseSpectrumLaw, lam):
    """Continuous density f(lambda), elementwise; 0 outside the open support.

    A scalar ``lam`` gives a float, an array gives an array of its shape.
    """
    lam = np.asarray(lam, dtype=float)
    inside = (lam > law.lambda_minus) & (lam < law.lambda_plus)
    x = lam[inside]
    out = np.zeros_like(lam)
    out[inside] = (np.sqrt((law.lambda_plus - x) * (x - law.lambda_minus))
                   / (2.0 * np.pi * x * (1.0 - x)))
    return out if out.ndim else float(out)


def noise_cdf(law: NoiseSpectrumLaw, lam: float) -> float:
    """CDF of the continuous part of the law at ``lam``, a proper CDF on the support.

    The continuous density is integrated from the lower edge up to ``lam``
    and divided by the continuous mass (for KS comparisons against sampled
    spectra). Computed by :func:`edge_quadrature`.
    """
    a, b = law.lambda_minus, law.lambda_plus
    mass = continuous_mass(law)
    if b - a <= 0.0 or mass <= 0.0 or lam <= a:
        return 0.0
    return edge_quadrature(a, b, min(lam, b), lambda xt: 2.0 * np.pi * xt * (1.0 - xt)) / mass


def singular_value_threshold(law: NoiseSpectrumLaw) -> float:
    """sqrt(lambda_plus), the noise-filtering threshold on the singular-value scale.

    When either ratio is 0 there are no noise directions and the threshold
    vanishes (the continuous part of the law carries no mass).
    """
    if min(law.q1, law.q2) == 0.0:
        return 0.0
    return float(np.sqrt(law.lambda_plus))


def density_sv_scale(law: NoiseSpectrumLaw, s) -> np.ndarray:
    """Density g(s) = 2 s f(s^2) on the singular-value axis."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return 2.0 * s * noise_density(law, s * s)


def sample_noise_spectrum(n: int, r1: int, r2: int, seed: int) -> np.ndarray:
    """Squared singular values of U1.T @ U2 for independent Haar bases, descending."""
    n, r1, r2 = as_count(n, "n"), as_count(r1, "r1"), as_count(r2, "r2")
    if n < 1 or not (0 <= r1 <= n and 0 <= r2 <= n):
        raise InvalidInput(f"need n >= 1 and ranks in [0, n]; got n = {n}, ranks ({r1}, {r2})")
    rng = derive_rng(seed)
    u1 = haar_basis(n, r1, rng)
    u2 = haar_basis(n, r2, rng)
    return principal_spectrum(u1, u2) ** 2
