"""
Rotational versus naive bootstrap
=================================

The naive bootstrap draws the two replicate bases independently from the Haar
measure; with a low rank-to-dimension ratio those bases are nearly orthogonal,
so the replicates never exhibit the alignment present in the data and the
perturbation bound comes out too small. The rotational variant re-orients the
second basis so the replicate cross-spectrum matches the observed one.

    python demos/bootstrap_ablation.py
"""

from dataclasses import replace

import numpy as np

import ppdecomp as ppd

##############################################################################
# Paired runs at a 0.05 rank-to-dimension ratio, SNR 0.5
# -------------------------------------------------------

print("seed  oracle_eps1  rotational  naive")
wins = 0
runs = 10
for seed in range(runs):
    cfg = ppd.SimConfig(n=100, dims=(120, 140), joint_rank=2,
                        individual_ranks=(3, 3), angle_deg=60.0, snr=0.5,
                        seed=seed)
    views, truth = ppd.generate(cfg)
    truncs = [ppd.truncate(v, r) for v, r in zip(views, cfg.marginal_ranks)]
    sigmas = [ppd.select_rank(v).sigma_hat for v in views]
    xs = [np.hstack([truth.joint, truth.individuals[k]]) for k in range(2)]
    oracle, _ = ppd.epsilon_pair(xs[0], xs[1], truncs[0].basis, truncs[1].basis)

    boot = ppd.BootstrapConfig(replicates=60, seed=seed + 1000)
    rot = ppd.estimate_epsilon1(views[0], views[1], truncs[0], truncs[1],
                                sigmas[0], sigmas[1], boot)
    naive = ppd.estimate_epsilon1(views[0], views[1], truncs[0], truncs[1],
                                  sigmas[0], sigmas[1], replace(boot, variant="naive"))
    wins += rot.epsilon1_hat >= naive.epsilon1_hat
    print(f"{seed:<5} {oracle:<12.3f} {rot.epsilon1_hat:<11.3f} "
          f"{naive.epsilon1_hat:.3f}")

print(f"\nrotational >= naive in {wins}/{runs} paired runs "
      f"(the naive variant under-estimates in this regime)")
