"""Seeded snapshot of ppdecomp's outputs, and the comparison of two snapshots.

    PYTHONPATH=src python3 tools/snapshot.py --out FILE
    PYTHONPATH=src python3 tools/snapshot.py --compare A B

Run as a script, it pins BLAS to one thread through the environment before
numpy loads, so two runs of one tree on one numpy and BLAS build write
identical files. ``ppdecomp`` is imported from ``PYTHONPATH`` if it is there
and from this checkout's ``src`` otherwise, so one copy of the tool can
snapshot two trees.

The snapshot holds every decomposition of:

* the 12 two-view Table-1 cells x 50 reps of ``run_benchmark``, at the
  acceptance tests' master seed and at master seed 42, with each cell's F x10;
* the 5 wide 167 x (1572, 375) draws of the ``wide_cli`` workload at seed 1
  (its 4 operations and its warm-up input), at ranks 16,16 with B = 100;
* the 4 draws of the ``tall3v`` workload at seeds 1-5 and 20, automatic
  ranks, B = 50.

The wide and tall inputs are ``perfbench/reference.py``'s ``planted_draw``,
seeded as ``perfbench/workloads.py`` seeds them. Each decomposition records
its marginal and joint ranks and, per view pair, ``epsilon1_hat``, every
replicate's epsilon, the pair's joint rank and its margin: the distance from
the nearest product singular value to the pair's cut. ``--compare`` prints
the largest relative differences of ``epsilon1_hat`` and of the per-replicate
epsilon, every changed rank with ``epsilon1_hat`` on both sides, every changed
F x10 and the ``tall3v`` seed-20 margins; it exits 1 if anything differs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    os.environ.update({name: "1" for name in BLAS_ENV})
sys.path.append(str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import ppdecomp  # noqa: E402
from ppdecomp import decomposition, simulate  # noqa: E402
from reference import planted_draw  # noqa: E402
from workloads import Table1Grid, Tall3v, WideCli, _int_seed, _rng  # noqa: E402

ACCEPTANCE_SEED = 20240815   # MASTER_SEED of tests/test_acceptance.py
MASTER_SEEDS = (ACCEPTANCE_SEED, 42)
TABLE1_REPS = 50
WIDE_SEED, WIDE_DRAWS, WIDE_RANKS, WIDE_REPLICATES = 1, 5, (16, 16), 100
TALL_SEEDS = (1, 2, 3, 4, 5, 20)
MARGIN_SEED = 20


class Recorder:
    """Records each decomposition with each view pair's bootstrap and product spectrum.

    While installed, it wraps the two calls ``decompose_multiview`` makes per
    pair, and the ``decompose_multiview`` that ``run_benchmark`` calls.
    """

    def __init__(self):
        self.records = []
        self._pairs = []

    def decompose(self, *args, **kwargs):
        self._pairs = []
        res = self._originals["decompose_multiview"](*args, **kwargs)
        self.records.append({"marginal_ranks": list(res.marginal_ranks),
                             "joint_rank": res.joint_rank, "pairs": self._pairs})
        return res

    def _estimate(self, *args, **kwargs):
        est = self._originals["estimate_epsilon1"](*args, **kwargs)
        self._pairs.append({"epsilon1_hat": est.epsilon1_hat,
                            "per_replicate": est.per_replicate.tolist()})
        return est

    def _spectrum(self, *args, **kwargs):
        spec = self._originals["product_spectrum"](*args, **kwargs)
        cut = max(spec.bootstrap_threshold, spec.noise_threshold)
        margin = float(np.min(np.abs(spec.values - cut))) if spec.values.size else None
        self._pairs[-1].update(joint_rank=decomposition.joint_rank(spec), margin=margin)
        return spec

    @contextlib.contextmanager
    def installed(self):
        patches = [(decomposition, "estimate_epsilon1", self._estimate),
                   (decomposition, "product_spectrum", self._spectrum),
                   (simulate, "decompose_multiview", self.decompose)]
        self._originals = {"decompose_multiview": decomposition.decompose_multiview}
        for module, name, wrapper in patches:
            self._originals[name] = getattr(module, name)
            setattr(module, name, wrapper)
        try:
            yield self
        finally:
            for module, name, _ in patches:
                setattr(module, name, self._originals[name])


def table1_cell(cell, master_seed, reps=TABLE1_REPS) -> dict:
    """One Table-1 cell ``(mode, snr, angle)``: its F x10 and every decomposition."""
    mode, snr, angle = cell
    cfg = ppdecomp.SimConfig(angle_deg=angle, snr=snr, seed=0, rank_mode=mode,
                             **Table1Grid.two_view)
    rec = Recorder()
    with rec.installed():
        row = ppdecomp.run_benchmark([cfg], reps=reps, master_seed=master_seed)[0]
    return {"cell": f"{mode}/{snr:g}/{angle:g}", "master_seed": master_seed,
            "f_x10": row.mean_f_scaled, "failures": list(row.failures),
            "decompositions": rec.records}


def workload_draw(workload, seed, index, ranks, replicates) -> dict:
    """One ``decompose_multiview`` of draw ``index`` of a benchmark workload at ``seed``."""
    draw = planted_draw(_rng(seed, workload.tag, index), **workload.shape)
    boot = ppdecomp.BootstrapConfig(replicates=replicates,
                                    seed=_int_seed(seed, workload.tag + 100, index))
    rec = Recorder()
    with rec.installed():
        rec.decompose(draw.views, ranks=ranks, bootstrap=boot)
    return {"seed": seed, "draw": index, **rec.records[0]}


def snapshot() -> dict:
    return {
        "table1": [table1_cell(cell, seed) for seed in MASTER_SEEDS for cell in Table1Grid.cells],
        "wide": [workload_draw(WideCli, WIDE_SEED, k, WIDE_RANKS, WIDE_REPLICATES)
                 for k in range(WIDE_DRAWS)],
        "tall3v": [workload_draw(Tall3v, seed, k, None, Tall3v.replicates)
                   for seed in TALL_SEEDS for k in range(Tall3v.draws)],
    }


def _decompositions(snap):
    """(label, decomposition) of every decomposition in ``snap``, in file order."""
    for cell in snap.get("table1", []):
        for rep, dec in enumerate(cell["decompositions"]):
            yield f"table1 {cell['cell']} seed {cell['master_seed']} decomposition {rep}", dec
    for name in ("wide", "tall3v"):
        for dec in snap.get(name, []):
            yield f"{name} seed {dec['seed']} draw {dec['draw']}", dec


def _rel(a, b) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(a: dict, b: dict):
    """``(lines, same)``: the report of ``--compare``, and whether ``a`` and ``b`` agree in full.

    The report gives one summary line per kind of value, the ``tall3v``
    seed-20 margins, and then one line per changed rank, changed F x10 or
    difference in what the snapshots hold.
    """
    summary, changes = [], []
    decs_a, decs_b = list(_decompositions(a)), list(_decompositions(b))
    if [label for label, _ in decs_a] != [label for label, _ in decs_b]:
        changes.append(f"the snapshots hold different decompositions "
                       f"({len(decs_a)} against {len(decs_b)})")
    eps = [0, 0, 0.0]    # compared, identical, max relative difference
    reps = [0, 0, 0.0]
    for (label, da), (_, db) in zip(decs_a, decs_b):
        for pa, pb in zip(da["pairs"], db["pairs"]):
            for tally, xs, ys in ((eps, [pa["epsilon1_hat"]], [pb["epsilon1_hat"]]),
                                  (reps, pa["per_replicate"], pb["per_replicate"])):
                tally[0] += len(xs)
                tally[1] += sum(x == y for x, y in zip(xs, ys))
                tally[2] = max([tally[2]] + [_rel(x, y) for x, y in zip(xs, ys)])
        ranks_a = (da["marginal_ranks"], da["joint_rank"], [p["joint_rank"] for p in da["pairs"]])
        ranks_b = (db["marginal_ranks"], db["joint_rank"], [p["joint_rank"] for p in db["pairs"]])
        if ranks_a != ranks_b:
            changes.append(f"rank changed: {label}: marginal {ranks_a[0]} -> {ranks_b[0]}, "
                           f"joint {ranks_a[1]} -> {ranks_b[1]}, per pair {ranks_a[2]} -> "
                           f"{ranks_b[2]}, epsilon1_hat "
                           f"{[p['epsilon1_hat'] for p in da['pairs']]} -> "
                           f"{[p['epsilon1_hat'] for p in db['pairs']]}")
    summary.append(f"epsilon1_hat: {eps[1]} of {eps[0]} identical, "
                   f"max relative difference {eps[2]:.3g}")
    summary.append(f"per-replicate epsilon: {reps[1]} of {reps[0]} identical, "
                   f"max relative difference {reps[2]:.3g}")
    for ca, cb in zip(a.get("table1", []), b.get("table1", [])):
        if ca["f_x10"] != cb["f_x10"] or ca["failures"] != cb["failures"]:
            changes.append(f"F x10 changed: {ca['cell']} seed {ca['master_seed']}: "
                           f"{ca['f_x10']!r} -> {cb['f_x10']!r} "
                           f"(printed {ca['f_x10']:.2f} -> {cb['f_x10']:.2f})")
    for (label, da), (_, db) in zip(decs_a, decs_b):
        if label.startswith(f"tall3v seed {MARGIN_SEED} "):
            margins = ", ".join(f"{pa['margin']!r} -> {pb['margin']!r}"
                                for pa, pb in zip(da["pairs"], db["pairs"]))
            summary.append(f"margins, {label}: {margins}")
    same = not changes and eps[1] == eps[0] and reps[1] == reps[0]
    return summary + changes, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", metavar="FILE")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.out:
        t0 = time.perf_counter()
        snap = snapshot()
        with open(args.out, "w") as fh:
            json.dump(snap, fh)
        print(f"wrote {args.out} in {time.perf_counter() - t0:.1f} s "
              f"(ppdecomp from {Path(ppdecomp.__file__).parent})")
        return 0
    with open(args.compare[0]) as fa, open(args.compare[1]) as fb:
        lines, same = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
