from dataclasses import replace

import numpy as np
import pytest

from ppdecomp import (BootstrapConfig, BootstrapInfeasible, InvalidInput,
                      SimConfig, decompose, epsilon_pair, estimate_epsilon1,
                      generate, haar_basis, misspecify_ranks, principal_spectrum,
                      rotate_align, select_rank, Truncation, truncate)
import ppdecomp.bootstrap
from ppdecomp.bootstrap import (_block_size, _frame_replicate, _haar_pair_rng,
                                _noise_replicate_rng, _row_basis_rng, _row_frame, _tail_bound)
from ppdecomp.linalg import mt
from conftest import count_filtered, prepared_views, projector, qr_basis

FIVE_CFG = dict(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4),
                angle_deg=90.0)


def test_haar_pair_blocks_are_orthogonal():
    u1, u2 = _haar_pair_rng(30, 7, 9, np.random.default_rng(0))
    assert u1.shape == (30, 7) and u2.shape == (30, 9)
    assert np.max(np.abs(u1.T @ u2)) <= 1e-8


def test_haar_pair_deterministic():
    a1, a2 = _haar_pair_rng(20, 4, 5, np.random.default_rng(99))
    b1, b2 = _haar_pair_rng(20, 4, 5, np.random.default_rng(99))
    assert np.array_equal(a1, b1) and np.array_equal(a2, b2)


def test_haar_pair_marginal_is_haar():
    # For a Haar frame, E ||x^T U||^2 = r/n for any fixed unit vector x.
    n, r1, r2 = 50, 9, 8
    x = np.zeros(n)
    x[0] = 1.0
    pairs = [_haar_pair_rng(n, r1, r2, np.random.default_rng(s)) for s in range(500)]
    for block, r in ((0, r1), (1, r2)):
        vals = [np.sum((x @ pair[block]) ** 2) for pair in pairs]
        assert abs(np.mean(vals) - r / n) <= 0.05


def test_rotate_align_all_ones_copies_first_basis():
    u1, u2 = _haar_pair_rng(25, 4, 6, np.random.default_rng(1))
    aligned = rotate_align(u1, u2, np.ones(4))
    assert np.allclose(aligned[:, :4], u1, atol=1e-12)
    assert np.allclose(aligned[:, 4:], u2[:, 4:], atol=1e-12)


def test_rotate_align_all_zeros_is_identity():
    u1, u2 = _haar_pair_rng(25, 4, 6, np.random.default_rng(2))
    assert np.allclose(rotate_align(u1, u2, np.zeros(4)), u2, atol=1e-12)


def test_rotate_align_reproduces_target_spectrum():
    u1, u2 = _haar_pair_rng(30, 2, 5, np.random.default_rng(3))
    target = np.array([0.9, 0.4])
    aligned = rotate_align(u1, u2, target)
    assert np.allclose(aligned.T @ aligned, np.eye(5), atol=1e-10)
    assert np.allclose(principal_spectrum(u1, aligned), target, atol=1e-8)


def test_rotate_align_rejects_overlapping_bases():
    u1, _ = _haar_pair_rng(20, 3, 3, np.random.default_rng(4))
    with pytest.raises(InvalidInput):
        rotate_align(u1, u1, np.ones(3))


def test_noise_replicate_without_truncation_returns_data():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((12, 9))
    e = _noise_replicate_rng(y, truncate(y, 0), 1.3, np.random.default_rng(0))
    assert np.array_equal(e, y)


def test_noise_replicate_zero_sigma_is_residual():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((12, 9))
    trunc = truncate(y, 3)
    e = _noise_replicate_rng(y, trunc, 0.0, np.random.default_rng(0))
    assert np.allclose(e, y - trunc.basis @ (trunc.basis.T @ y), atol=1e-12)


def test_noise_replicate_restores_noise_energy():
    # Pure-noise data truncated at rank 5: the adjusted estimate should carry
    # about the same Frobenius energy as the planted noise.
    n, p, r, s = 60, 90, 5, 1.0
    ratios = []
    for seed in range(100):
        z = s * np.random.default_rng(seed).standard_normal((n, p))
        trunc = truncate(z, r)
        e = _noise_replicate_rng(z, trunc, s, np.random.default_rng(seed + 1))
        ratios.append(np.linalg.norm(e, "fro") / np.linalg.norm(z, "fro"))
    assert abs(np.mean(ratios) - 1.0) <= 0.1


def _qr_row_basis(v, n):
    """Reference (v_m, k) of an explicit Haar frame v, or of each frame of a
    stack: its first m = min(n, p) rows, and the transposed R factor of the
    rest (None when p <= n)."""
    p = v.shape[-2]
    m = min(n, p)
    return v[..., :m, :], (mt(np.linalg.qr(v[..., m:, :], mode="r")) if p > m else None)


def _haar_row_basis(p, n, r, rng):
    """Reference row draw: a full Haar (p, r) frame per generator, read as
    ``_qr_row_basis``."""
    return _qr_row_basis(haar_basis(p, r, rng), n)


@pytest.mark.parametrize("p,n,r", [(12, 20, 5), (20, 20, 5), (23, 20, 5), (24, 20, 5),
                                   (25, 20, 5), (400, 20, 5), (1572, 167, 16)],
                         ids=["tall", "square", "barely-wide", "wide-by-r-1", "wide-by-r",
                              "wide", "walkthrough"])
def test_row_basis_draw_is_orthonormal(p, n, r):
    # v_m^T v_m + k k^T = v^T v = I in every branch: p = m, 0 < p - m < r,
    # and p - m >= r (the Bartlett factor).
    rng = np.random.default_rng(p)
    for _ in range(20):
        v_m, k = _row_basis_rng(p, n, r, rng)
        assert v_m.shape == (min(n, p), r)
        gram = v_m.T @ v_m
        if p <= n:
            assert k is None
        else:
            assert k.shape == (r, min(p - n, r))
            gram += k @ k.T
        assert np.max(np.abs(gram - np.eye(r))) <= 1e-12
    if 0 < p - n < r:
        # G_m and G_rest are consecutive rows of the Gaussian that
        # haar_basis(p, r) would draw, so v_m is its first m rows.
        v_m, _ = _row_basis_rng(p, n, r, np.random.default_rng(0))
        assert np.allclose(v_m, haar_basis(p, r, np.random.default_rng(0))[:n], atol=1e-12)


@pytest.mark.parametrize("p,n,r", [(100, 50, 9), (56, 50, 9), (400, 30, 4)],
                         ids=["wide", "barely-wide", "very-wide"])
def test_row_basis_draw_has_haar_moments(p, n, r):
    # For a Haar (p, r) frame, E[v_m^T v_m] = (n / p) I. A wrong chi-square
    # degree or a Bartlett factor built upper instead of lower triangular
    # moves some diagonal entry by many standard errors.
    rng = np.random.default_rng(p + r)
    grams = np.array([v_m.T @ v_m for v_m, _ in
                      (_row_basis_rng(p, n, r, rng) for _ in range(3000))])
    diag = grams[:, np.arange(r), np.arange(r)]
    se = diag.std(axis=0, ddof=1) / np.sqrt(diag.shape[0])
    assert np.all(np.abs(diag.mean(axis=0) - n / p) <= 4.0 * se)


def test_row_basis_draw_never_forms_a_wide_frame(monkeypatch):
    # Nothing p-sized is drawn per replicate: every Haar frame the bootstrap
    # draws of a 30 x 400 pair lives in R^30.
    sizes = []
    haar = ppdecomp.bootstrap.haar_basis
    monkeypatch.setattr(ppdecomp.bootstrap, "haar_basis",
                        lambda d, r, rng: sizes.append(d) or haar(d, r, rng))
    rng = np.random.default_rng(9)
    y1, y2 = rng.standard_normal((30, 400)), rng.standard_normal((30, 400))
    est = estimate_epsilon1(y1, y2, truncate(y1, 4), truncate(y2, 3), 1.0, 1.0,
                            BootstrapConfig(replicates=5, seed=2))
    assert est.per_replicate.shape == (5,)
    assert sizes and max(sizes) <= 30


@pytest.mark.parametrize("n,p,noise", [(20, 40, 1.0), (20, 23, 1.0), (20, 20, 1.0),
                                       (20, 12, 1.0), (20, 40, 0.0), (20, 12, 0.0)],
                         ids=["wide", "barely-wide", "square", "tall", "wide-e0", "tall-e0"])
def test_frame_replicate_has_the_replicate_gram(n, p, noise):
    # p >= n + r, n < p < n + r, p = n, p < n, and noise-free data. The
    # stand-in must reproduce y y^T of the replicate y = us (O v)^T + e, with
    # O = [q q_perp] the completed row frame of e, and hence the truncation
    # of y itself.
    r = 5
    rng = np.random.default_rng(n + p)
    e = noise * rng.standard_normal((n, p))
    us = qr_basis(n, r, rng) * np.linspace(30.0, 10.0, r)
    v = qr_basis(p, r, rng)
    o = np.linalg.qr(e.T, mode="complete")[0]
    y = us @ (o @ v).T + e
    rt = _row_frame(e)
    z = _frame_replicate(us, *_qr_row_basis(v, n), rt)
    assert z.shape == (n, n + min(p - n, r) if p > n else p)
    assert np.linalg.norm(z @ z.T - y @ y.T, 2) <= 1e-12 * np.linalg.norm(y, 2) ** 2
    assert np.max(np.abs(projector(truncate(z, r).basis)
                         - projector(truncate(y, r).basis))) <= 1e-10
    # Weyl: the signal has rank r, so s_{r+1} <= |e|_2 = |rt|_2. Without
    # noise, s_{r+1} of the computed z is round-off of its leading value.
    s = np.linalg.svd(z, compute_uv=False)
    assert s[r] <= np.linalg.norm(rt, 2) * (1.0 + 1e-12) + 1e-14 * s[0]


def test_tail_bound_screen():
    # The bound |rt|_2 is passed only if every retained column is signal, the
    # noise is above round-off of the leading value, and s_r clears it by 1.5.
    trunc = Truncation(np.eye(6, 3), np.array([9.0, 6.0, 3.0]))
    rt = np.diag([1.0, 0.5])
    assert _tail_bound(trunc, 3, rt) == 1.0
    assert _tail_bound(trunc, 2, rt) is None               # k < r
    assert _tail_bound(trunc, 3, 0.0 * rt) is None         # sigma_hat = 0 on noise-free data
    assert _tail_bound(trunc, 3, 9e-13 * rt) is None       # round-off noise
    assert _tail_bound(trunc, 3, 2.0 * rt) is None         # s_r = 1.5 |e|_2
    assert _tail_bound(trunc, 3, 2.5 * rt) is None


def _over_ranks(cfg):
    return misspecify_ranks(cfg.marginal_ranks, "over", seed=cfg.seed + 1000)


def _five_factor_inputs(seed, snr, angle=90.0, over=False):
    cfg = SimConfig(snr=snr, seed=seed, **{**FIVE_CFG, "angle_deg": angle})
    views, truth, truncs, sigmas = prepared_views(cfg, _over_ranks(cfg) if over else None)
    xs = [np.hstack([truth.joint, truth.individuals[k]]) for k in range(2)]
    oracle = epsilon_pair(xs[0], xs[1], truncs[0].basis, truncs[1].basis)
    return views, truncs, sigmas, oracle


def test_epsilon1_noiseless_is_tiny():
    cfg = SimConfig(snr=np.inf, seed=0, **FIVE_CFG)
    views, _, truncs, _ = prepared_views(cfg)
    est = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], 0.0, 0.0,
                            BootstrapConfig(replicates=8, seed=1))
    assert est.epsilon1_hat <= 1e-6


def test_epsilon1_noiseless_over_specified_is_tiny():
    # The estimated bases contain the true ones, so the oracle epsilon_1 is 0;
    # the surplus columns have round-off singular values and carry no signal.
    for seed in range(3):
        cfg = SimConfig(snr=np.inf, seed=seed, **FIVE_CFG)
        views, _, truncs, _ = prepared_views(cfg, _over_ranks(cfg))
        est = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], 0.0, 0.0,
                                BootstrapConfig(replicates=8, seed=1))
        assert est.epsilon1_hat <= 1e-6


def test_filtered_retruncation_only_where_it_certifies(monkeypatch):
    # A wide pair at SNR 2 certifies every replicate; over-specified ranks
    # (surplus columns carry no signal) and noise-free views never enter.
    outcomes = count_filtered(monkeypatch)
    cfg = SimConfig(n=167, dims=(1572, 375), joint_rank=8, individual_ranks=(8, 8),
                    angle_deg=60.0, snr=2.0, seed=3)
    decompose(*generate(cfg)[0], ranks=(16, 16), bootstrap=BootstrapConfig(replicates=4))
    assert outcomes == [True] * 8
    outcomes.clear()
    for snr, over in ((2.0, True), (0.5, True), (np.inf, False), (np.inf, True)):
        cfg = SimConfig(snr=snr, seed=4, **FIVE_CFG)
        views, _ = generate(cfg)
        decompose(*views, ranks=_over_ranks(cfg) if over else None,
                  bootstrap=BootstrapConfig(replicates=4))
    assert outcomes == []


@pytest.mark.parametrize("angle", [90.0, 30.0], ids=["a90", "a30"])
def test_epsilon1_calibrated_under_over_specified_ranks(angle):
    biases = []
    for seed in range(20):
        views, truncs, sigmas, (eps1, _) = _five_factor_inputs(seed, 2.0, angle, over=True)
        est = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas,
                                BootstrapConfig(replicates=100, seed=seed + 300))
        biases.append(est.epsilon1_hat - eps1)
    assert abs(np.mean(biases)) <= 0.05


def _svd_haar_pair(n, r1, r2, rngs):
    """Reference pair draw: consecutive blocks of the left singular basis of
    one Gaussian n x n matrix per generator, an independent construction of
    the Haar law."""
    u = np.linalg.svd(np.stack([rng.standard_normal((n, n)) for rng in rngs]))[0]
    return u[..., :r1], u[..., r1:r1 + r2]


def test_epsilon1_same_law_as_svd_haar_pair(monkeypatch):
    # The QR pair draw and the SVD reference are both Haar, so epsilon_1 may
    # differ only within its Monte-Carlo error. Over 20 draws the mean
    # standardized difference has sd about 0.22.
    def estimates(seed):
        views, truncs, sigmas, _ = _five_factor_inputs(seed, 2.0, 30.0)
        return estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas,
                                 BootstrapConfig(replicates=100, seed=seed + 300))

    new = [estimates(seed) for seed in range(20)]
    monkeypatch.setattr(ppdecomp.bootstrap, "_haar_pair_rng", _svd_haar_pair)
    old = [estimates(seed) for seed in range(20)]
    z = [(a.epsilon1_hat - b.epsilon1_hat)
         / np.sqrt((a.per_replicate.var(ddof=1) + b.per_replicate.var(ddof=1)) / 100)
         for a, b in zip(new, old)]
    assert abs(np.mean(z)) <= 1.0


def _q_row_frame(e):
    """Reference row frame with its orthonormal factor formed: e = rt q^T."""
    q, r = np.linalg.qr(e.T)
    return q, r.T


def _q_frame_replicate(us, v, q, rt):
    """Reference stand-in for y = us v^T + rt q^T, which reads v through q,
    for each replicate of the stacks ``us`` and ``v``.

    Its part outside col(q), of Gram C = I - a^T a with a = q^T v, is carried
    by the extra block us C^(1/2).
    """
    a = q.T @ v
    z = us @ mt(a) + rt
    if q.shape[0] == q.shape[1]:
        return z
    lam, w = np.linalg.eigh(np.eye(a.shape[-1]) - mt(a) @ a)
    c_half = (w * np.sqrt(np.maximum(lam, 0.0))[..., None, :]) @ mt(w)
    return np.concatenate([z, us @ c_half], axis=-1)


@pytest.mark.parametrize("n,dims", [(50, (80, 100)), (100, (40, 60))], ids=["wide", "tall"])
def test_epsilon1_same_law_as_q_frame_replicate(monkeypatch, n, dims):
    # Reading v in the noise's own coordinates replicates y = us (O v)^T + e
    # instead of us v^T + e; O v is Haar too, so epsilon_1 may differ only
    # within its Monte-Carlo error. The reference keeps the noise and forms q.
    def estimates(seed):
        cfg = SimConfig(snr=2.0, seed=seed, **{**FIVE_CFG, "n": n, "dims": dims,
                                               "angle_deg": 30.0})
        views, _, truncs, sigmas = prepared_views(cfg)
        return estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas,
                                 BootstrapConfig(replicates=100, seed=seed + 300))

    new = [estimates(seed) for seed in range(20)]
    monkeypatch.setattr(ppdecomp.bootstrap, "_row_frame", lambda e: e)
    monkeypatch.setattr(ppdecomp.bootstrap, "_row_basis_rng",
                        lambda p, n, r, rng: (haar_basis(p, r, rng), None))
    monkeypatch.setattr(ppdecomp.bootstrap, "_frame_replicate",
                        lambda us, v, _, e: _q_frame_replicate(us, v, *_q_row_frame(e)))
    old = [estimates(seed) for seed in range(20)]
    z = [(a.epsilon1_hat - b.epsilon1_hat)
         / np.sqrt((a.per_replicate.var(ddof=1) + b.per_replicate.var(ddof=1)) / 100)
         for a, b in zip(new, old)]
    assert abs(np.mean(z)) <= 1.0


@pytest.mark.parametrize("dims", [(80, 100), (54, 56)], ids=["wide", "barely-wide"])
def test_epsilon1_same_law_as_full_width_row_draw(monkeypatch, dims):
    # The Bartlett row draw (p - m >= r) and the direct one (p - m < r) have
    # the law of the first m rows and the rest's Gram of a full Haar (p, r)
    # frame, so epsilon_1 may differ only within its Monte-Carlo error. The
    # reference draws that frame and takes the R factor of its last p - m rows.
    # Barely wide, both draws read the same Gaussian, so they agree to round-off.
    def estimates(seed):
        cfg = SimConfig(snr=2.0, seed=seed, **{**FIVE_CFG, "dims": dims, "angle_deg": 30.0})
        views, _, truncs, sigmas = prepared_views(cfg)
        return estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas,
                                 BootstrapConfig(replicates=100, seed=seed + 300))

    new = [estimates(seed) for seed in range(20)]
    monkeypatch.setattr(ppdecomp.bootstrap, "_row_basis_rng", _haar_row_basis)
    old = [estimates(seed) for seed in range(20)]
    z = [(a.epsilon1_hat - b.epsilon1_hat)
         / np.sqrt((a.per_replicate.var(ddof=1) + b.per_replicate.var(ddof=1)) / 100)
         for a, b in zip(new, old)]
    assert abs(np.mean(z)) <= 1.0


WIDE_CFG = dict(n=167, dims=(1572, 375), joint_rank=8, individual_ranks=(8, 8), angle_deg=60.0)


@pytest.mark.parametrize("shape,ranks", [(FIVE_CFG, None), (WIDE_CFG, (16, 16)),
                                         ({**FIVE_CFG, "n": 90, "dims": (40, 60)}, None)],
                         ids=["table1", "wide-filtered", "tall"])
def test_epsilon1_does_not_depend_on_the_block_size(monkeypatch, shape, ranks):
    # Replicates run in stacked blocks, each item computed as it would be
    # alone, so every per-replicate value is bit for bit the same whether the
    # blocks hold one replicate, the default number, or all B of them.
    views, _ = generate(SimConfig(snr=2.0, seed=3, **shape))
    ranks = ranks or [select_rank(y).rank for y in views]
    truncs = [truncate(y, r) for y, r in zip(views, ranks)]
    sigmas = [select_rank(y).sigma_hat for y in views]
    outcomes = count_filtered(monkeypatch)

    def per_replicate():
        return estimate_epsilon1(views[0], views[1], *truncs, *sigmas,
                                 BootstrapConfig(replicates=7, seed=5)).per_replicate

    default = per_replicate()
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_BYTES", 1)
    one = per_replicate()
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_BYTES", 1 << 40)
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_REPLICATES", 7)
    whole = per_replicate()
    assert np.array_equal(default, one) and np.array_equal(default, whole)
    if ranks == (16, 16):   # the filter certified every item in every blocking
        assert outcomes == [True] * 42


def test_block_size_from_footprint(monkeypatch):
    # Stand-ins of 50 x (80, 100) at ranks 9, 8 are 50 x 59 and 50 x 58, each
    # with a 50 x 50 Gram matrix: 86800 bytes a replicate.
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_REPLICATES", 1000)
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_BYTES", 10 * 86800 + 1)
    assert _block_size(50, 9, 8, 80, 100) == 10
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_BYTES", 10 * 86800 - 1)
    assert _block_size(50, 9, 8, 80, 100) == 9
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_BYTES", 1)
    assert _block_size(50, 9, 8, 80, 100) == 1
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_REPLICATES", 4)
    monkeypatch.setattr(ppdecomp.bootstrap, "BLOCK_BYTES", 1 << 40)
    assert _block_size(50, 9, 8, 80, 100) == 4


def test_epsilon1_deterministic_and_consistent():
    views, truncs, sigmas, _ = _five_factor_inputs(seed=3, snr=2.0)
    cfg = BootstrapConfig(replicates=12, seed=42)
    a = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas, cfg)
    b = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas, cfg)
    assert a.epsilon1_hat == b.epsilon1_hat
    assert np.array_equal(a.per_replicate, b.per_replicate)
    assert a.per_replicate.shape == (12,)
    assert a.epsilon1_hat == pytest.approx(float(a.per_replicate.mean()), abs=1e-15)
    assert 0.0 <= a.per_replicate.min() and a.per_replicate.max() <= 1.0


def test_epsilon1_order_invariant():
    views, truncs, sigmas, _ = _five_factor_inputs(seed=4, snr=2.0)
    cfg = BootstrapConfig(replicates=10, seed=7)
    fwd = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1],
                            sigmas[0], sigmas[1], cfg)
    rev = estimate_epsilon1(views[1], views[0], truncs[1], truncs[0],
                            sigmas[1], sigmas[0], cfg)
    assert fwd.epsilon1_hat == rev.epsilon1_hat


def test_epsilon1_tracks_oracle_at_high_snr():
    hits = 0
    for seed in range(20):
        views, truncs, sigmas, (eps1, _) = _five_factor_inputs(seed, snr=2.0)
        est = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas,
                                BootstrapConfig(replicates=100, seed=seed + 300))
        hits += -0.05 <= est.epsilon1_hat - eps1 <= 0.15
    assert hits >= 18


def test_epsilon1_conservative_behaviour_at_low_snr():
    # Once the observed alignments have collapsed, the replicates can only
    # plant the already-degraded cosines, so the estimate sits below the
    # oracle while remaining far above the noiseless baseline.
    hits = 0
    for seed in range(20):
        views, truncs, sigmas, (eps1, _) = _five_factor_inputs(seed, snr=0.5)
        est = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas,
                                BootstrapConfig(replicates=60, seed=seed + 400))
        assert eps1 >= 0.5  # the regime: joint alignment is destroyed
        assert est.epsilon1_hat >= 0.2
        hits += est.epsilon1_hat <= eps1
    assert hits >= 16


def test_naive_variant_shares_the_random_stream():
    views, truncs, sigmas, _ = _five_factor_inputs(seed=5, snr=2.0)
    cfg = BootstrapConfig(replicates=1, seed=11)
    rot = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas, cfg)
    naive_cfg = replace(cfg, variant="naive")
    naive = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas, naive_cfg)
    again = estimate_epsilon1(views[0], views[1], truncs[0], truncs[1], *sigmas, naive_cfg)
    assert naive.variant == "naive" and rot.variant == "rotational"
    assert naive.epsilon1_hat == again.epsilon1_hat
    assert naive.per_replicate.shape == rot.per_replicate.shape


@pytest.mark.parametrize("k", [-150, -100, -60, 60, 100, 150])
def test_epsilon1_invariant_to_extreme_view_scale(k):
    # Debiasing works in units of the leading singular value, so no power of
    # the noise level over- or underflows.
    cfg = SimConfig(snr=2.0, seed=3, **{**FIVE_CFG, "angle_deg": 30.0})
    views, _ = generate(cfg)
    boot = BootstrapConfig(replicates=50, seed=1)
    base = decompose(views[0], views[1], bootstrap=boot)
    scaled = decompose(views[0] * 10.0**k, views[1], bootstrap=boot)
    assert scaled.joint_rank == base.joint_rank
    assert scaled.epsilon1_hat == pytest.approx(base.epsilon1_hat, rel=1e-9)


def test_epsilon1_infeasible_ranks():
    rng = np.random.default_rng(8)
    y1 = rng.standard_normal((10, 20))
    y2 = rng.standard_normal((10, 25))
    t1, t2 = truncate(y1, 6), truncate(y2, 6)
    with pytest.raises(BootstrapInfeasible):
        estimate_epsilon1(y1, y2, t1, t2, 0.1, 0.1, BootstrapConfig(replicates=2, seed=0))
