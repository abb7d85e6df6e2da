"""Acceptance suite: one pass/fail line per criterion (run with -s to stream).

Criteria 1 and 2 replicate the published benchmark tables cell by cell at the
stated tolerances. Several Table-1 cells are not reached by the current
program; the measured cause of each is given in the README section "Expected
failures in the Table-1 replication". Those cells are asserted faithfully and
report FAIL rather than being loosened.
"""

import json
import math

import numpy as np
import pytest

import ppdecomp as ppd
from ppdecomp import (BootstrapConfig, SimConfig, epsilon_pair,
                      individual_basis, joint_basis, noise_cdf, noise_law,
                      principal_spectrum, run_benchmark, sample_noise_spectrum,
                      subspace_distance, theorem2_bounds, truncate,
                      truth_oracle)
from ppdecomp.cli import main
from conftest import ablation_paired_runs, qr_basis

from test_decomposition import (bf_epsilons, bf_principal_spectrum,
                                bf_theorem2, small_instance)

MASTER_SEED = 20240815
NUM_TOL = 1e-9


def report_line(num, ok, desc, detail=""):
    tail = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {desc}{tail}")


# ---------------------------------------------------------------------------
# Criterion 1: two-view benchmark table, 50 replications per cell.

TWO_VIEW = dict(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4))

TABLE1_CELLS = [
    ("estimated", 2.0, 90.0, 9.91, 0.4),
    ("estimated", 2.0, 30.0, 9.75, 0.4),
    ("over", 2.0, 90.0, 9.19, 0.4),
    ("over", 2.0, 30.0, 8.01, 0.4),
    ("under", 2.0, 90.0, 8.44, 0.4),
    ("under", 2.0, 30.0, 7.86, 0.4),
    ("estimated", 0.5, 90.0, 3.86, 0.6),
    ("estimated", 0.5, 30.0, 3.67, 0.6),
    ("over", 0.5, 90.0, 5.07, 0.6),
    ("over", 0.5, 30.0, 4.67, 0.6),
    ("under", 0.5, 90.0, 5.12, 0.6),
    ("under", 0.5, 30.0, 4.61, 0.6),
]


@pytest.mark.parametrize(
    "mode,snr,angle,target,tol", TABLE1_CELLS,
    ids=[f"{m}-snr{s}-a{int(a)}" for m, s, a, _, _ in TABLE1_CELLS])
def test_criterion_1_two_view_table(mode, snr, angle, target, tol):
    cfg = SimConfig(angle_deg=angle, snr=snr, seed=0, rank_mode=mode, **TWO_VIEW)
    row = run_benchmark([cfg], reps=50, master_seed=MASTER_SEED)[0]
    ok = abs(row.mean_f_scaled - target) <= tol and not row.failures
    report_line(1, ok, f"two-view table cell {mode}/snr={snr}/{angle:g}deg",
                f"mean F x10 = {row.mean_f_scaled:.2f}, target {target} +/- {tol}")
    assert ok, (f"cell {mode}/snr={snr}/{angle}: got {row.mean_f_scaled:.2f}, "
                f"target {target} +/- {tol}, failures={row.failures}")


# ---------------------------------------------------------------------------
# Criterion 2: three-view benchmark table (estimated ranks, SNR 2).

THREE_VIEW = dict(n=35, dims=(40, 45, 50), joint_rank=3, individual_ranks=(4, 3, 3))


@pytest.mark.parametrize("angle,target", [(90.0, 9.83), (30.0, 9.75)],
                         ids=["a90", "a30"])
def test_criterion_2_three_view_table(angle, target):
    cfg = SimConfig(angle_deg=angle, snr=2.0, seed=0, rank_mode="estimated",
                    **THREE_VIEW)
    row = run_benchmark([cfg], reps=50, master_seed=MASTER_SEED)[0]
    ok = abs(row.mean_f_scaled - target) <= 0.4 and not row.failures
    report_line(2, ok, f"three-view table cell estimated/snr=2/{angle:g}deg",
                f"mean F x10 = {row.mean_f_scaled:.2f}, target {target} +/- 0.4")
    assert ok


# ---------------------------------------------------------------------------
# Criteria 3 and 4: cluster containment and estimation-error domination.

def _theorem_instance(seed):
    angle = [30.0, 50.0, 90.0][seed % 3]
    snr = [0.5, 2.0, 22.0][(seed // 3) % 3]
    cfg = SimConfig(angle_deg=angle, snr=snr, seed=seed, **TWO_VIEW)
    views, truth = ppd.generate(cfg)
    truncs = [truncate(views[k], cfg.marginal_ranks[k]) for k in range(2)]
    xs = [np.hstack([truth.joint, truth.individuals[k]]) for k in range(2)]
    eps1, eps2 = epsilon_pair(xs[0], xs[1], truncs[0].basis, truncs[1].basis)
    return cfg, truth, truncs, eps1, eps2


def test_criterion_3_cluster_containment():
    bad = 0
    for seed in range(200):
        _, truth, truncs, eps1, eps2 = _theorem_instance(seed)
        oracle = truth_oracle(truth.joint, truth.individuals, eps1, eps2)
        vals = principal_spectrum(truncs[0].basis, truncs[1].basis)
        sizes = (oracle.joint_dim, oracle.nonorth_rank,
                 vals.size - oracle.joint_dim - oracle.nonorth_rank)
        idx = 0
        for size, (lo, hi) in zip(sizes, oracle.cluster_intervals):
            seg = vals[idx:idx + size]
            idx += size
            if seg.size and (seg.min() < lo - NUM_TOL or seg.max() > hi + NUM_TOL):
                bad += 1
                break
    ok = bad == 0
    report_line(3, ok, "sorted product spectrum inside the oracle cluster intervals",
                f"{200 - bad}/200 seeds contained")
    assert ok


def test_criterion_4_estimation_error_domination():
    held = 0
    violated = 0
    for seed in range(200):
        cfg, truth, truncs, _, _ = _theorem_instance(seed)
        j_hat = joint_basis([t.basis for t in truncs], cfg.joint_rank)
        ind_hats = [individual_basis(truncs[k].basis, j_hat) for k in range(2)]
        rep = theorem2_bounds(truth.joint, truth.individuals,
                              [t.basis for t in truncs], j_hat, ind_hats)
        if not rep.hypothesis_ok:
            continue
        held += 1
        if rep.joint_distance > rep.joint_bound + NUM_TOL or any(
                d > b + NUM_TOL for d, b in zip(rep.individual_distances,
                                                rep.individual_bounds)):
            violated += 1
    ok = violated == 0 and held >= 50
    report_line(4, ok, "subspace-distance bounds dominate realized distances",
                f"hypothesis held on {held}/200 seeds, {violated} violations")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 5: noiseless exactness.

def test_criterion_5_noiseless_exactness():
    bad = 0
    for seed in range(50):
        angle = [30.0, 50.0, 90.0][seed % 3]
        cfg = SimConfig(angle_deg=angle, snr=math.inf, seed=seed, **TWO_VIEW)
        views, truth = ppd.generate(cfg)
        res = ppd.decompose(views[0], views[1], ranks=cfg.marginal_ranks,
                            bootstrap=BootstrapConfig(replicates=20, seed=seed))
        exact = (
            res.joint_rank == cfg.joint_rank
            and subspace_distance(res.joint, truth.joint) <= 1e-8
            and all(subspace_distance(res.individuals[k], truth.individuals[k]) <= 1e-8
                    for k in range(2))
        )
        bad += not exact
    ok = bad == 0
    report_line(5, ok, "noiseless planted structures recovered exactly",
                f"{50 - bad}/50 seeds exact")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 6: noise-spectrum law validation.

@pytest.mark.parametrize("q1,q2", [(0.1, 0.1), (0.2, 0.3), (0.4, 0.4)],
                         ids=["q11", "q23", "q44"])
def test_criterion_6_noise_law(q1, q2):
    n = 200
    r1, r2 = int(q1 * n), int(q2 * n)
    law = noise_law(q1, q2)
    grid = np.linspace(law.lambda_minus, law.lambda_plus, 2001)
    cdf_grid = np.array([noise_cdf(law, x) for x in grid])
    edge_hits = 0
    ks = []
    for seed in range(200):
        vals = np.sort(sample_noise_spectrum(n, r1, r2, seed=seed))
        edge_hits += vals[-1] <= law.lambda_plus + 0.05
        theo = np.interp(vals, grid, cdf_grid, left=0.0, right=1.0)
        m = vals.size
        ks.append(max(np.max(np.arange(1, m + 1) / m - theo),
                      np.max(theo - np.arange(m) / m)))
    ok = edge_hits >= 190 and np.mean(ks) <= 0.12
    report_line(6, ok, f"random-projection law at q=({q1},{q2})",
                f"edge respected {edge_hits}/200, mean KS {np.mean(ks):.3f}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 7: rotational-vs-naive bootstrap ablation.

def test_criterion_7_bootstrap_ablation():
    pairs = ablation_paired_runs(n_runs=20, replicates=60, seed0=100)
    wins = sum(rot >= naive for rot, naive in pairs)
    ok = wins >= 16
    report_line(7, ok, "rotational epsilon_1 >= naive at low rank-to-dimension ratio",
                f"{wins}/20 paired runs")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 8: brute-force oracle equivalence on small instances.

def test_criterion_8_brute_force_equivalence():
    worst = 0.0
    for seed in range(20):
        joint, inds, hats = small_instance(seed)
        u1 = np.hstack([joint, inds[0]])
        u2 = np.hstack([joint, inds[1]])
        got = epsilon_pair(u1, u2, hats[0], hats[1])
        want = bf_epsilons(u1, u2, hats[0], hats[1])
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
        spec = principal_spectrum(hats[0], hats[1])
        worst = max(worst, float(np.max(np.abs(
            spec - bf_principal_spectrum(hats[0], hats[1])))))
        j_hat = joint_basis(hats, 2)
        ind_hats = [individual_basis(hats[k], j_hat) for k in range(2)]
        rep = theorem2_bounds(joint, inds, hats, j_hat, ind_hats)
        bf_joint, bf_inds, _ = bf_theorem2(joint, inds, hats, j_hat)
        worst = max(worst, abs(rep.joint_bound - bf_joint),
                    abs(rep.individual_bounds[0] - bf_inds[0]),
                    abs(rep.individual_bounds[1] - bf_inds[1]))
    ok = worst <= 1e-10
    report_line(8, ok, "reduced-span quantities match full projector arithmetic",
                f"worst deviation {worst:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# Criterion 9: CLI determinism, every subcommand byte-identical across reruns.

def _run_all_subcommands(tmp_path, tag):
    out = tmp_path / tag
    out.mkdir()
    rng = np.random.default_rng(3)
    y1 = qr_basis(20, 3, rng) @ np.diag([3.0, 2.0, 1.5]) @ qr_basis(24, 3, rng).T
    y2 = y1 + 0.01 * rng.standard_normal(y1.shape)
    v1, v2 = out / "v1.csv", out / "v2.csv"
    ppd.write_matrix_csv(v1, y1)
    ppd.write_matrix_csv(v2, y2)
    result = out / "result.json"
    svg = out / "plot.svg"
    rep = out / "report.json"
    assert main(["decompose", "--view", str(v1), "--view", str(v2),
                 "--ranks", "3,3", "--bootstrap-reps", "8", "--seed", "11",
                 "--out", str(result), "--diagnostic", str(svg),
                 "--diagnostic-json", str(rep)]) == 0
    grid = out / "grid.cfg"
    grid.write_text("n = 24\np = 30,34\njoint_rank = 2\nindividual_ranks = 2,2\n"
                    "angles = 90\nsnrs = 8\nrank_modes = true\nreps = 2\n"
                    "seed = 3\nbootstrap_reps = 8\n")
    table = out / "table.csv"
    assert main(["simulate", "--config", str(grid), "--out", str(table)]) == 0
    law = out / "law.json"
    assert main(["noise-spectrum", "--n", "60", "--r1", "12", "--r2", "18",
                 "--seed", "5", "--out", str(law)]) == 0
    diag = out / "diag.svg"
    assert main(["diagnose", "--result", str(result), "--svg", str(diag)]) == 0
    return {p.name: p.read_bytes() for p in (result, svg, rep, table, law, diag)}


def test_criterion_9_cli_determinism(tmp_path):
    first = _run_all_subcommands(tmp_path, "run1")
    second = _run_all_subcommands(tmp_path, "run2")
    identical = [name for name in first if first[name] == second[name]]
    ok = len(identical) == len(first)
    report_line(9, ok, "every CLI subcommand is byte-deterministic",
                f"{len(identical)}/{len(first)} outputs identical")
    assert ok


# ---------------------------------------------------------------------------
# End-to-end CSV walkthrough shaped like the colorectal-cancer analysis.

def test_walkthrough_wide_views_with_manual_ranks(tmp_path):
    cfg = SimConfig(n=167, dims=(1572, 375), joint_rank=8,
                    individual_ranks=(8, 8), angle_deg=60.0, snr=2.0, seed=1)
    views, _ = ppd.generate(cfg)
    v1, v2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    ppd.write_matrix_csv(v1, views[0])
    ppd.write_matrix_csv(v2, views[1])
    result = tmp_path / "result.json"
    rep = tmp_path / "report.json"
    rc = main(["decompose", "--view", str(v1), "--view", str(v2),
               "--ranks", "16,16", "--bootstrap-reps", "40", "--seed", "7",
               "--out", str(result), "--diagnostic-json", str(rep)])
    assert rc == 0
    payload = json.loads(result.read_text())
    report = json.loads(rep.read_text())
    green_lo = report["green_band"][0]
    blue_hi = report["blue_band"][1]
    ok = payload["joint_rank"] == 8 and green_lo > blue_hi
    report_line("W", ok, "wide-view CSV walkthrough with manual rank override",
                f"joint rank {payload['joint_rank']}, bands ({green_lo:.3f} > {blue_hi:.3f})")
    assert ok
