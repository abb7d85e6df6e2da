"""Shared construction helpers for the test suite.

These deliberately avoid the package's own Haar/orthonormalization helpers so
that planted fixtures stay independent of the code under test.
"""

from dataclasses import replace

import numpy as np


def qr_basis(n, r, rng):
    """Orthonormal (n, r) frame from a QR factorization of a Gaussian draw."""
    q, rr = np.linalg.qr(rng.standard_normal((n, r)))
    return q * np.sign(np.diag(rr))


def angled_pair(n, r1, r2, angle_deg, rng):
    """Two bases whose r2 principal angles all equal ``angle_deg`` (r2 <= r1)."""
    assert r2 <= r1
    q = qr_basis(n, r1 + r2, rng)
    a = q[:, :r1]
    fresh = q[:, r1:r1 + r2]
    phi = np.radians(angle_deg)
    b = np.cos(phi) * a[:, :r2] + np.sin(phi) * fresh
    return a, b


def projector(u):
    return u @ u.T


def prepared_views(cfg, ranks=None):
    """Generate a draw and return (views, truth, truncations, sigma_hats)."""
    import ppdecomp as ppd

    views, truth = ppd.generate(cfg)
    if ranks is None:
        ranks = cfg.marginal_ranks
    truncs = [ppd.truncate(y, r) for y, r in zip(views, ranks)]
    sigmas = [ppd.select_rank(y).sigma_hat for y in views]
    return views, truth, truncs, sigmas


def count_filtered(monkeypatch):
    """Record, per item that truncate hands its filtered eigensolver, whether it certified."""
    import ppdecomp.bootstrap

    outcomes = []
    filtered_top = ppdecomp.bootstrap._filtered_top

    def counted(*args):
        out = filtered_top(*args)
        outcomes.extend(out[1].tolist())
        return out

    monkeypatch.setattr(ppdecomp.bootstrap, "_filtered_top", counted)
    return outcomes


def ablation_paired_runs(n_runs=20, replicates=60, seed0=0):
    """Rotational-vs-naive epsilon_1 pairs at low rank-to-dimension ratio, SNR 0.5."""
    import ppdecomp as ppd

    pairs = []
    for seed in range(seed0, seed0 + n_runs):
        cfg = ppd.SimConfig(n=100, dims=(120, 140), joint_rank=2,
                            individual_ranks=(3, 3), angle_deg=60.0, snr=0.5,
                            seed=seed)
        views, _, truncs, sigmas = prepared_views(cfg)
        boot = ppd.BootstrapConfig(replicates=replicates, seed=seed + 5000)
        rot = ppd.estimate_epsilon1(views[0], views[1], truncs[0], truncs[1],
                                    sigmas[0], sigmas[1], boot)
        naive = ppd.estimate_epsilon1(views[0], views[1], truncs[0], truncs[1],
                                      sigmas[0], sigmas[1], replace(boot, variant="naive"))
        pairs.append((rot.epsilon1_hat, naive.epsilon1_hat))
    return pairs
