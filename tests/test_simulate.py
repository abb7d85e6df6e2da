import math
import warnings

import numpy as np
import pytest

from ppdecomp import (DimensionMismatch, InvalidInput, SimConfig, generate,
                      misspecify_ranks, principal_spectrum, run_benchmark,
                      score)
from conftest import qr_basis


def base_cfg(**kw):
    args = dict(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4),
                angle_deg=90.0, snr=2.0, seed=0)
    args.update(kw)
    return SimConfig(**args)


def test_generate_orthogonal_individuals_at_ninety_degrees():
    _, truth = generate(base_cfg(snr=math.inf))
    cos = principal_spectrum(truth.individuals[0], truth.individuals[1])
    assert np.all(cos <= 1e-8)


def test_generate_planted_angle_thirty_degrees():
    _, truth = generate(base_cfg(angle_deg=30.0, snr=math.inf))
    cos = principal_spectrum(truth.individuals[0], truth.individuals[1])
    assert cos[0] == pytest.approx(math.cos(math.radians(30.0)), abs=1e-8)


def test_generate_noiseless_at_infinite_snr():
    views, truth = generate(base_cfg(snr=math.inf))
    for y, x, s in zip(views, truth.signals, truth.noise_sigmas):
        assert s == 0.0
        assert np.array_equal(y, x)


def test_generate_deterministic():
    a_views, a_truth = generate(base_cfg(seed=123))
    b_views, b_truth = generate(base_cfg(seed=123))
    for a, b in zip(a_views, b_views):
        assert np.array_equal(a, b)
    assert np.array_equal(a_truth.joint, b_truth.joint)


def test_generate_noise_matches_requested_level():
    views, truth = generate(base_cfg(seed=7))
    z = views[0] - truth.signals[0]
    assert np.std(z) == pytest.approx(truth.noise_sigmas[0], rel=0.05)
    svs = np.linalg.svd(truth.signals[0], compute_uv=False)
    expected = svs[8] / (2.0 * (math.sqrt(50) + math.sqrt(80)))
    assert truth.noise_sigmas[0] == pytest.approx(expected, rel=1e-12)


def test_generate_construction_fidelity():
    # Noiseless planted spectrum of the projection product: joint ones, then
    # the common cosine, then zeros.
    _, truth = generate(base_cfg(angle_deg=30.0, snr=math.inf))
    x1 = np.hstack([truth.joint, truth.individuals[0]])
    x2 = np.hstack([truth.joint, truth.individuals[1]])
    vals = principal_spectrum(x1, x2)
    assert np.allclose(vals[:4], 1.0, atol=1e-8)
    assert np.allclose(vals[4:8], math.cos(math.radians(30.0)), atol=1e-8)
    assert vals.shape == (8,)


def test_generate_signal_orthogonality_invariants():
    _, truth = generate(base_cfg(seed=3))
    for ind in truth.individuals:
        assert np.max(np.abs(truth.joint.T @ ind)) <= 1e-10


def test_generate_does_not_draw_through_haar_basis(monkeypatch):
    # The planted row frames are drawn in the generator itself, so a change
    # to how the bootstrap's Haar frames are computed cannot move the data.
    import ppdecomp.linalg
    import ppdecomp.simulate

    def refuse(*args, **kwargs):
        raise AssertionError("generate must not call haar_basis")

    for module in (ppdecomp.linalg, ppdecomp.simulate):
        if hasattr(module, "haar_basis"):
            monkeypatch.setattr(module, "haar_basis", refuse)
    views, truth = generate(base_cfg(individual_ranks=(5, 0)))
    assert [y.shape for y in views] == [(50, 80), (50, 100)]
    assert truth.individuals[1].shape == (50, 0)


def test_generate_rejects_bad_configs():
    with pytest.raises(InvalidInput):
        base_cfg(angle_deg=0.0)
    with pytest.raises(InvalidInput):
        base_cfg(snr=0.0)
    with pytest.raises(InvalidInput):
        base_cfg(individual_ranks=(5, 6))  # rotated rank above the first view's
    with pytest.raises(InvalidInput):
        base_cfg(n=10)  # construction budget exceeded
    with pytest.raises(InvalidInput):
        base_cfg(rank_mode="bogus")
    with pytest.raises(InvalidInput):
        base_cfg(sv_range=(2.0, 1.0))
    with pytest.raises(InvalidInput, match="two views"):
        base_cfg(dims=(80,), individual_ranks=(5,))
    with pytest.raises(InvalidInput, match="one individual rank per view"):
        base_cfg(individual_ranks=(5, 4, 3))
    with pytest.raises(InvalidInput, match="ranks must be >= 0"):
        base_cfg(joint_rank=-1)
    with pytest.raises(InvalidInput, match="ranks must be >= 0"):
        base_cfg(individual_ranks=(5, -1))
    with pytest.raises(InvalidInput, match="exceeds min"):
        base_cfg(dims=(80, 7))
    # Empty views: every rep would fail in the decomposition.
    with pytest.raises(InvalidInput, match="must be >= 1"):
        base_cfg(n=0, joint_rank=0, individual_ranks=(0, 0))
    with pytest.raises(InvalidInput, match="must be >= 1"):
        base_cfg(dims=(80, 0), joint_rank=0, individual_ranks=(0, 0))


def test_misspecify_arithmetic_and_determinism():
    over = misspecify_ranks((9, 8), "over", seed=5)
    assert over == misspecify_ranks((9, 8), "over", seed=5)
    assert all(1 <= o - t <= 3 for o, t in zip(over, (9, 8)))
    under = misspecify_ranks((9, 8), "under", seed=5)
    assert all(1 <= t - u <= 3 for u, t in zip(under, (9, 8)))


def test_misspecify_distribution():
    counts = {1: 0, 2: 0, 3: 0}
    for seed in range(3000):
        (r,) = misspecify_ranks((9,), "over", seed=seed)
        counts[r - 9] += 1
    for u in (1, 2, 3):
        assert abs(counts[u] / 3000 - 1 / 3) <= 0.03


def test_misspecify_clamps_with_warning():
    clamped = False
    for seed in range(30):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            (r,) = misspecify_ranks((2,), "under", seed=seed)
        if caught:
            assert r == 1
            clamped = True
    assert clamped


def test_misspecify_rejects_unknown_mode():
    with pytest.raises(InvalidInput):
        misspecify_ranks((5,), "sideways", seed=0)


def test_score_exact_recovery():
    u = qr_basis(15, 4, np.random.default_rng(0))
    triple = score(u, u)
    assert triple.tpp == pytest.approx(1.0)
    assert triple.fdp == pytest.approx(0.0)
    assert triple.f_score == pytest.approx(1.0)


def test_score_orthogonal_equal_dims():
    q = qr_basis(15, 6, np.random.default_rng(1))
    triple = score(q[:, :3], q[:, 3:])
    assert triple.tpp == pytest.approx(0.0, abs=1e-12)
    assert triple.fdp == pytest.approx(1.0)
    assert triple.f_score == 0.0


def test_score_extra_direction():
    q = qr_basis(15, 3, np.random.default_rng(2))
    triple = score(q, q[:, :2])  # estimate = truth plus one orthogonal extra
    assert triple.tpp == pytest.approx(1.0)
    assert triple.fdp == pytest.approx(1 / 3)
    assert triple.f_score == pytest.approx(0.8)


def test_score_rotation_invariance():
    rng = np.random.default_rng(3)
    u = qr_basis(15, 4, rng)
    v = qr_basis(15, 4, rng)
    q = qr_basis(15, 15, rng)
    a = score(u, v)
    b = score(q @ u, q @ v)
    assert a.tpp == pytest.approx(b.tpp, abs=1e-10)
    assert a.f_score == pytest.approx(b.f_score, abs=1e-10)


def test_score_empty_conventions():
    u = qr_basis(10, 3, np.random.default_rng(4))
    empty = np.zeros((10, 0))
    missed = score(empty, u)
    assert missed.tpp == 0.0 and missed.fdp == 0.0 and missed.f_score == 0.0
    nothing = score(empty, empty)
    assert nothing.tpp == 1.0 and nothing.fdp == 0.0 and nothing.f_score == 1.0


def test_score_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        score(np.eye(4), np.eye(5))


def test_run_benchmark_smoke_and_determinism():
    grid = [base_cfg(n=30, dims=(40, 45), joint_rank=2, individual_ranks=(2, 2),
                     angle_deg=90.0, snr=4.0, rank_mode=mode)
            for mode in ("true", "estimated")]
    rows = run_benchmark(grid, reps=3, master_seed=11, bootstrap_reps=10)
    again = run_benchmark(grid, reps=3, master_seed=11, bootstrap_reps=10)
    assert len(rows) == 2
    for row, row2 in zip(rows, again):
        assert row.reps == 3 and not row.failures
        assert 0.0 <= row.mean_f_raw <= 1.0
        assert row.mean_f_scaled == pytest.approx(10 * row.mean_f_raw)
        assert row.mean_f_scaled == row2.mean_f_scaled
        assert row.cell_seed == row2.cell_seed


def test_run_benchmark_needs_a_rep():
    with pytest.raises(InvalidInput, match="reps"):
        run_benchmark([base_cfg()], reps=0)


def test_run_benchmark_records_failures():
    # Over-mode on a tiny ambient dimension makes the bootstrap infeasible.
    grid = [base_cfg(n=9, dims=(12, 14), joint_rank=2, individual_ranks=(2, 2),
                     angle_deg=90.0, snr=8.0, rank_mode="over")]
    rows = run_benchmark(grid, reps=4, master_seed=1, bootstrap_reps=5)
    assert rows[0].failures
    assert rows[0].reps + len(rows[0].failures) == 4
