"""Tests of the benchmark's own checks and scorer.

    python3 -m pytest perfbench/test_reference.py -q
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import ppdecomp  # noqa: E402
from reference import (CheckFailed, check_result, f_score, left_frames,  # noqa: E402
                       planted_draw)


def brute_f(estimate, truth):
    """F from ambient n x n projectors, no trace identity."""
    n = truth.shape[0]
    p_true = truth @ truth.T
    p_est = estimate @ estimate.T
    tpp = np.trace(p_est @ p_true) / truth.shape[1] if truth.shape[1] else 1.0
    fdp = np.trace((np.eye(n) - p_true) @ p_est) / estimate.shape[1] if estimate.shape[1] else 0.0
    tpp, fdp = min(tpp, 1.0), min(max(fdp, 0.0), 1.0)
    return 2 * (1 - fdp) * tpp / (1 - fdp + tpp) if 1 - fdp + tpp > 0 else 0.0


@pytest.mark.parametrize("r_true,r_est", [(3, 3), (4, 2), (2, 5), (0, 3), (3, 0)])
def test_f_score_matches_ambient_projectors(r_true, r_est):
    rng = np.random.default_rng(r_true * 10 + r_est)
    q = np.linalg.qr(rng.standard_normal((40, 8)))[0]
    truth = q[:, :r_true]
    # An estimate sharing some directions with the truth and tilted off it.
    mixed = q[:, :r_est] + 0.3 * q[:, 8 - r_est:] if r_est else q[:, :0]
    estimate = np.linalg.qr(mixed)[0] if r_est else mixed
    assert f_score(estimate, truth) == pytest.approx(brute_f(estimate, truth), abs=1e-12)


@pytest.fixture(scope="module")
def decomposed():
    draw = planted_draw(np.random.default_rng(5), n=80, dims=(40, 50), joint_rank=3,
                        individual_ranks=(4, 3), angle_deg=60.0, snr=3.0)
    res = ppdecomp.decompose_multiview(draw.views, bootstrap=ppdecomp.BootstrapConfig(20, 1))
    result = {"joint": res.joint, "individuals": list(res.individuals),
              "marginal_ranks": res.marginal_ranks, "joint_rank": res.joint_rank,
              "values": res.spectrum.values,
              "bootstrap_threshold": res.spectrum.bootstrap_threshold,
              "noise_threshold": res.spectrum.noise_threshold,
              "binding_pair": res.binding_pair}
    return result, left_frames(draw.views)


def test_untouched_result_passes(decomposed):
    result, frames = decomposed
    assert result["joint_rank"] == 3
    check_result(result, frames)


def _scale_joint_column(r):
    joint = r["joint"].copy()
    joint[:, 0] *= 1.01
    return dict(r, joint=joint)


def _joint_rank_plus_one(r):
    return dict(r, joint_rank=r["joint_rank"] + 1)


def _drop_joint_column(r):
    return dict(r, joint=r["joint"][:, 1:], joint_rank=r["joint_rank"] - 1)


def _swap_thresholds(r):
    return dict(r, bootstrap_threshold=r["noise_threshold"],
                noise_threshold=r["bootstrap_threshold"])


def _tilt_individual_into_joint(r):
    ind = r["individuals"][0].copy()
    t = 1e-6
    ind[:, 0] = np.cos(t) * ind[:, 0] + np.sin(t) * r["joint"][:, 0]
    return dict(r, individuals=[ind] + r["individuals"][1:])


def _shift_spectrum(r):
    values = np.array(r["values"])
    values[-1] += 1e-6
    return dict(r, values=values)


@pytest.mark.parametrize("corrupt,message", [
    (_scale_joint_column, "joint basis is not orthonormal"),
    (_joint_rank_plus_one, "joint basis has"),
    (_drop_joint_column, "above the cut"),
    (_swap_thresholds, "noise threshold"),
    (_tilt_individual_into_joint, "not orthogonal to the joint"),
    (_shift_spectrum, "principal-angle cosines"),
])
def test_each_check_rejects_its_corruption(decomposed, corrupt, message):
    result, frames = decomposed
    with pytest.raises(CheckFailed, match=message):
        check_result(corrupt(result), frames)
