import math

import numpy as np
import pytest

from ppdecomp import (InvalidInput, SimConfig, generate, gd_coefficient,
                      marchenko_pastur_median, mp_median_sv, select_rank,
                      truncate)
from ppdecomp import bootstrap
from ppdecomp.bootstrap import SignalPlusNoise
from conftest import count_filtered, projector, qr_basis


def mp_median_oracle(beta):
    """Independent Marchenko-Pastur median via scipy adaptive quadrature."""
    from scipy import integrate, optimize
    a = (1 - math.sqrt(beta)) ** 2
    b = (1 + math.sqrt(beta)) ** 2

    def density(x):
        return math.sqrt((b - x) * (x - a)) / (2 * math.pi * beta * x)

    def cdf_minus_half(x):
        return integrate.quad(density, a, x, limit=200)[0] - 0.5

    return optimize.brentq(cdf_minus_half, a + 1e-12, b - 1e-12, xtol=1e-10)


@pytest.mark.parametrize("beta", [1.0, 0.8, 0.5, 0.2])
def test_mp_median_matches_quadrature_oracle(beta):
    assert marchenko_pastur_median(beta) == pytest.approx(mp_median_oracle(beta), rel=1e-6)


def test_mp_median_sv_small_beta_limit():
    # With p >> n the eigenvalue law concentrates at 1, so the median singular
    # value approaches sqrt(p).
    p = 4_000_000
    assert mp_median_sv(5, p) / math.sqrt(p) == pytest.approx(1.0, abs=1e-2)


def test_mp_median_quadrature_resolution_consistency():
    # The production node count resolves the median: an independent 800-node
    # Gauss-Legendre rule, under the same substitution t = a + (b - a)(1 -
    # cos u) / 2, puts the Marchenko-Pastur CDF at the returned median at 1/2.
    u_nodes, u_weights = np.polynomial.legendre.leggauss(800)
    for beta in (1.0, 0.37):
        a, b = (1.0 - math.sqrt(beta)) ** 2, (1.0 + math.sqrt(beta)) ** 2
        median = marchenko_pastur_median(beta)
        half = 0.5 * (b - a)
        u_up = math.acos(min(max(1.0 - (median - a) / half, -1.0), 1.0))
        u = 0.5 * u_up * (u_nodes + 1.0)
        t = a + half * (1.0 - np.cos(u))
        cdf = np.sum(0.5 * u_up * u_weights * half**2 * np.sin(u) ** 2 / (2.0 * math.pi * beta * t))
        assert abs(cdf - 0.5) < 1e-6


def test_mp_median_is_bisected_once_per_shape(monkeypatch):
    # A second view of the same shape reuses the cached Marchenko-Pastur
    # median: no quadrature runs, and the value is the same float.
    import ppdecomp.ranksel
    y = np.random.default_rng(0).standard_normal((37, 53))
    first = select_rank(y)
    calls = []
    monkeypatch.setattr(ppdecomp.ranksel, "edge_quadrature", lambda *a: calls.append(a) or 0.0)
    again = select_rank(2.0 * y)
    assert calls == [] and again.mp_median == first.mp_median


def test_estimate_noise_sigma_scale_equivariance():
    y = np.random.default_rng(0).standard_normal((40, 90))
    base = select_rank(y).sigma_hat
    assert select_rank(2.5 * y).sigma_hat == pytest.approx(2.5 * base, rel=1e-12)


def test_estimate_noise_sigma_pure_noise_monte_carlo():
    n, p, s_true = 100, 150, 2.0
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        y = s_true * rng.standard_normal((n, p))
        sigma = select_rank(y).sigma_hat
        hits += 1.9 <= sigma <= 2.1
    assert hits >= 95


def test_estimate_noise_sigma_with_planted_signal():
    # Rank-2 signal plus noise at SNR 2: the median is barely displaced, so
    # the estimate stays within 10% of the planted level.
    hits = 0
    for seed in range(50):
        cfg = SimConfig(n=50, dims=(80, 80), joint_rank=1, individual_ranks=(1, 1),
                        angle_deg=90.0, snr=2.0, seed=seed)
        views, truth = generate(cfg)
        sigma = select_rank(views[0]).sigma_hat
        hits += abs(sigma - truth.noise_sigmas[0]) <= 0.1 * truth.noise_sigmas[0]
    assert hits >= 45


def test_estimate_noise_sigma_rejects_empty():
    with pytest.raises(InvalidInput):
        select_rank(np.zeros((0, 5)))


@pytest.mark.parametrize("beta", [0.0, -0.5, 1.5, math.nan])
def test_mp_median_rejects_beta_outside_the_unit_interval(beta):
    with pytest.raises(InvalidInput, match="beta"):
        marchenko_pastur_median(beta)


def test_mp_median_sv_rejects_an_empty_shape():
    with pytest.raises(InvalidInput, match=">= 1"):
        mp_median_sv(0, 5)


def test_select_rank_rejects_a_vector():
    with pytest.raises(InvalidInput, match="2-D"):
        select_rank(np.ones(5))


def test_gd_coefficient_at_beta_one():
    assert gd_coefficient(1.0) == pytest.approx(2.86, abs=1e-12)


def test_select_rank_zero_matrix():
    assert select_rank(np.zeros((6, 9))).rank == 0


def test_select_rank_noiseless_low_rank_matrix():
    rng = np.random.default_rng(9)
    y = np.outer(rng.standard_normal(30), rng.standard_normal(50))
    y += np.outer(rng.standard_normal(30), rng.standard_normal(50))
    assert select_rank(y).rank == 2


def test_select_rank_recovers_planted_rank():
    # The threshold tends to overestimate, so rank >= 4 should be the norm.
    hits = 0
    for seed in range(100):
        cfg = SimConfig(n=50, dims=(80, 80), joint_rank=2, individual_ranks=(2, 2),
                        angle_deg=90.0, snr=2.0, seed=seed)
        views, _ = generate(cfg)
        hits += select_rank(views[0]).rank >= 4
    assert hits >= 90


def test_select_rank_transpose_invariance():
    rng = np.random.default_rng(5)
    y = rng.standard_normal((40, 70)) + 4.0 * np.outer(rng.standard_normal(40),
                                                       rng.standard_normal(70))
    a = select_rank(y)
    b = select_rank(y.T)
    assert a.rank == b.rank
    assert a.beta == b.beta
    assert a.threshold == pytest.approx(b.threshold, rel=1e-12)


def test_select_rank_threshold_scales_linearly():
    rng = np.random.default_rng(6)
    y = rng.standard_normal((30, 45))
    assert select_rank(3.0 * y).threshold == pytest.approx(
        3.0 * select_rank(y).threshold, rel=1e-12)


def test_truncate_full_rank_reproduces_input():
    rng = np.random.default_rng(7)
    y = rng.standard_normal((8, 5))
    basis = truncate(y, 5).basis
    assert np.max(np.abs(basis @ (basis.T @ y) - y)) <= 1e-8


def test_truncate_rank_zero():
    y = np.ones((4, 6))
    trunc = truncate(y, 0)
    assert np.all(trunc.basis @ (trunc.basis.T @ y) == 0.0)
    assert trunc.basis.shape == (4, 0)
    assert trunc.values.size == 0


def test_truncate_diagonal():
    y = np.diag([3.0, 1.0])
    basis = truncate(y, 1).basis
    assert np.allclose(basis @ (basis.T @ y), np.diag([3.0, 0.0]))


def test_truncate_is_frobenius_optimal():
    rng = np.random.default_rng(8)
    y = rng.standard_normal((20, 14))
    s = np.linalg.svd(y, compute_uv=False)
    for r in (0, 3, 9):
        basis = truncate(y, r).basis
        err = np.linalg.norm(y - basis @ (basis.T @ y), "fro")
        assert err == pytest.approx(math.sqrt(np.sum(s[r:] ** 2)), abs=1e-8)


def _planted(n, p, strengths, noise, seed):
    rng = np.random.default_rng(seed)
    k = len(strengths)
    signal = (qr_basis(n, k, rng) * strengths) @ qr_basis(p, k, rng).T
    return signal + noise * rng.standard_normal((n, p))


def _projector_gap(a, b):
    return np.linalg.norm(projector(a) - projector(b), 2)


SHAPES = pytest.mark.parametrize("shape", [(30, 70), (70, 30), (40, 40)],
                                 ids=["wide", "tall", "square"])


@SHAPES
def test_truncate_matches_svd(shape):
    # The Gram route agrees with a full SVD to round-off when the rank-r gap is
    # clear, keeps surplus values of a rank-deficient input at round-off, and
    # neither overflows nor underflows at extreme scales.
    y = _planted(*shape, np.linspace(10.0, 5.0, 6), 0.1, seed=sum(shape))
    trunc = truncate(y, 6)
    u, s, _ = np.linalg.svd(y)
    assert _projector_gap(trunc.basis, u[:, :6]) <= 1e-12
    assert np.all(np.abs(trunc.values - s[:6]) <= 1e-12 * s[:6])
    assert np.all(np.diff(trunc.values) <= 0.0)

    values = truncate(_planted(*shape, np.linspace(10.0, 5.0, 4), 0.0, seed=1), 6).values
    assert np.all(values[4:] <= 1e-12 * values[0])

    for scale in (1e150, 1e-150):
        scaled = truncate(y * scale, 6)
        assert all(np.all(np.isfinite(a)) for a in scaled)
        assert _projector_gap(scaled.basis, trunc.basis) <= 1e-12
        assert scaled.values / scale == pytest.approx(trunc.values, rel=1e-12)


def _factored(n, p, strengths, noise, seed, scale=1.0):
    """A SignalPlusNoise stack, one item per entry of ``strengths`` (padded
    with zeros to a common rank), all sharing one noise draw, and the dense
    n x p matrices u v^T + e that it stands for.

    With e = P diag(sigma) F^T its thin SVD, u v^T + e reads u (F^T v)^T +
    P diag(sigma) in the right frame F completed, so w = F^T v.
    """
    rng = np.random.default_rng(seed)
    e = noise * rng.standard_normal((n, p))
    frame, sigma, ft = np.linalg.svd(e, full_matrices=False)
    r = max(len(s) for s in strengths)
    us, w, dense = [], [], []
    for s in strengths:
        u = qr_basis(n, r, rng) * np.pad(np.asarray(s, float), (0, r - len(s)))
        v = qr_basis(p, r, rng)
        us.append(u)
        w.append(ft @ v)
        dense.append(u @ v.T + e)
    return (SignalPlusNoise(frame, scale * sigma, scale * np.stack(us), np.stack(w)),
            scale * np.stack(dense))


def _item(stack, k):
    """Item ``k`` of a SignalPlusNoise stack, as a stack of one."""
    return stack._replace(us=stack.us[k:k + 1], w=stack.w[k:k + 1])


@SHAPES
def test_truncate_tail_bound_matches_bound_free(shape, monkeypatch):
    # A valid bound on s_7 takes the certified filter, which agrees with the
    # eigh route to round-off, at any scale; both agree with the dense
    # truncation of the matrix that the factored stack stands for.
    outcomes = count_filtered(monkeypatch)
    for scale in (1.0, 1e150, 1e-150):
        stack, y = _factored(*shape, [np.linspace(10.0, 5.0, 6)], 0.1, seed=sum(shape),
                             scale=scale)
        s = np.linalg.svd(y[0] / scale, compute_uv=False)
        free = bootstrap.truncate(stack, 6)
        dense = truncate(y[0], 6)
        assert _projector_gap(free.basis[0], dense.basis) <= 1e-12
        assert np.all(np.abs(free.values[0] - dense.values) <= 1e-12 * dense.values)
        for bound in (s[6], 2.0 * s[6]):
            bounded = bootstrap.truncate(stack, 6, bound * scale)
            assert _projector_gap(bounded.basis[0], free.basis[0]) <= 1e-12
            assert np.all(np.abs(bounded.values - free.values) <= 1e-12 * free.values)
            assert np.all(np.diff(bounded.values) <= 0.0)
    assert outcomes == [True] * 6


@SHAPES
def test_truncate_useless_tail_bound_is_bit_identical(shape, monkeypatch):
    # A bound at or above s_r cannot be certified, and a bound of 0 is not
    # tried; either way the eigh route runs. The first two do enter the filter.
    stack, y = _factored(*shape, [np.linspace(10.0, 5.0, 6)], 0.1, seed=sum(shape))
    s = np.linalg.svd(y[0], compute_uv=False)
    free = bootstrap.truncate(stack, 6)
    outcomes = count_filtered(monkeypatch)
    for bound in (s[5], 0.5 * (s[4] + s[5]), 2.0 * s[0], 0.0):
        bounded = bootstrap.truncate(stack, 6, bound)
        assert np.array_equal(bounded.basis, free.basis)
        assert np.array_equal(bounded.values, free.values)
    assert len(outcomes) >= 2 and not any(outcomes)


@SHAPES
def test_truncate_round_off_tail_bound_raises_no_float_error(shape, monkeypatch):
    # A bound of 1e-13 s_1 drives the filter's gain to its cap. On a nearly
    # noise-free rank-6 input it certifies; on a rank-4 one, s_5 and s_6 lie
    # below the bound and it falls back. No intermediate may overflow or
    # underflow either way.
    outcomes = count_filtered(monkeypatch)
    for strengths in (np.linspace(10.0, 5.0, 6), np.linspace(10.0, 5.0, 4)):
        stack, y = _factored(*shape, [strengths], 1e-16, seed=sum(shape))
        free = bootstrap.truncate(stack, 6)
        with np.errstate(all="raise"):
            bounded = bootstrap.truncate(stack, 6, 1e-13 * np.linalg.norm(y[0], 2))
        assert _projector_gap(bounded.basis[0], free.basis[0]) <= 1e-12
        assert np.all(np.abs(bounded.values - free.values) <= 1e-12 * free.values[0, 0])
    assert outcomes == [True, False]


@SHAPES
def test_truncate_gain_cap_keeps_a_tiny_tail_bound_in_range(shape, monkeypatch):
    # On a noise-free stack a bound of 1e-150 s_1 is valid, but a filter at
    # full degree that damps [0, b] underflows in its Chebyshev recurrence.
    # The gain cap lowers the degree to 0 there, so the item goes straight to
    # eigh and comes out as without a bound, bit for bit.
    outcomes = count_filtered(monkeypatch)
    stack, y = _factored(*shape, [np.linspace(10.0, 5.0, 6)], 0.0, seed=sum(shape))
    free = bootstrap.truncate(stack, 6)
    with np.errstate(all="raise"):
        bounded = bootstrap.truncate(stack, 6, 1e-150 * np.linalg.norm(y[0], 2))
    assert np.array_equal(bounded.basis, free.basis)
    assert np.array_equal(bounded.values, free.values)
    assert outcomes == [False]


def test_truncate_rejects_excessive_rank():
    with pytest.raises(InvalidInput):
        truncate(np.ones((4, 6)), 5)


@pytest.mark.parametrize("shape", [(40, 60), (60, 40)], ids=["wide", "tall"])
@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150], ids=["1", "1e150", "1e-150"])
def test_truncate_stack_matches_per_item(shape, scale, monkeypatch):
    # One stack holds items that certify, one whose s_6 sits at the noise
    # level and a rank-4 one (s_5 and s_6 below the bound); the last two
    # cannot certify and fall back to eigh. Each item must come out as
    # truncating it alone gives, bit for bit, with the same certificate
    # outcome: a certified item that lost its certificate would still agree
    # to round-off, so the outcomes are compared too.
    strengths = [np.linspace(10.0, 5.0, 6), [10.0, 9.0, 8.0, 7.0, 6.0, 0.3],
                 np.linspace(10.0, 5.0, 6), np.linspace(10.0, 5.0, 4)]
    stack, y = _factored(*shape, strengths, 0.1, seed=7, scale=scale)
    bound = 2.0 * scale   # above every s_7, below s_6 of the certified items
    outcomes = count_filtered(monkeypatch)
    stacked = bootstrap.truncate(stack, 6, bound)
    stacked_outcomes = outcomes[:]
    outcomes.clear()
    alone = [bootstrap.truncate(_item(stack, k), 6, bound) for k in range(4)]
    assert stacked_outcomes == outcomes == [True, False, True, False]
    assert stacked.basis.shape == (4, shape[0], 6) and stacked.values.shape == (4, 6)
    for k, one in enumerate(alone):
        assert _projector_gap(stacked.basis[k], one.basis[0]) <= 1e-12
        assert np.all(np.abs(stacked.values[k] - one.values[0]) <= 1e-12 * one.values[0])
        assert np.array_equal(stacked.basis[k], one.basis[0])
        assert np.array_equal(stacked.values[k], one.values[0])
    for k in (0, 2):   # the certified items agree with the dense route
        assert _projector_gap(stacked.basis[k], truncate(y[k], 6).basis) <= 1e-12
    # A bound-free stack runs eigh, each item as it would alone.
    free = bootstrap.truncate(stack, 6)
    for k in range(4):
        assert np.array_equal(free.basis[k], bootstrap.truncate(_item(stack, k), 6).basis[0])


def test_truncate_tall_stack_bases_are_orthonormal_on_both_routes(monkeypatch):
    # For p < n a certified item's basis is y x over its column norms, where
    # an eigh item takes the sign-fixed QR of y x. Both must be orthonormal
    # and span the leading left singular subspace of the formed y, with its
    # leading singular values, descending.
    strengths = [np.linspace(10.0, 5.0, 6), np.linspace(20.0, 4.0, 6),
                 [9.0, 8.5, 8.0, 7.0, 6.0, 3.0]]
    stack, y = _factored(70, 30, strengths, 0.1, seed=11)
    outcomes = count_filtered(monkeypatch)
    certified = bootstrap.truncate(stack, 6, 2.0)   # above every s_7, below every s_6
    assert outcomes == [True] * 3
    outcomes.clear()
    twin = bootstrap.truncate(stack, 6)
    assert outcomes == []
    for trunc in (certified, twin):
        for basis, values, dense in zip(trunc.basis, trunc.values, y):
            _, s, vt = np.linalg.svd(dense)
            q, rr = np.linalg.qr(dense @ vt[:6].T)
            ref = q * np.copysign(1.0, np.diag(rr))
            assert np.max(np.abs(basis.T @ basis - np.eye(6))) <= 1e-13
            assert _projector_gap(basis, ref) <= 1e-12
            assert np.all(np.diff(values) <= 0.0)
            assert np.all(np.abs(values - s[:6]) <= 1e-12 * s[:6])
