"""Synthetic multi-view generator, subspace recovery metrics, benchmark harness.

The generator plants an exact joint/individual structure: the column spaces
come from disjoint blocks of the left singular basis of one Gaussian matrix,
every individual subspace beyond the first is rotated against the first by a
common angle, singular values are i.i.d. uniform, row spaces are Haar, and
i.i.d. Gaussian noise is added at a level set through

    s_k = sigma_min(X_k) / (SNR * (sqrt(n) + sqrt(p_k))),

with sigma_min the smallest non-zero signal singular value, so that SNR
measures the recoverability of the weakest planted direction against the
expected spectral norm of the noise (SNR = 1 puts the weakest direction at
the noise edge).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._rng import STREAM_CELL, derive_rng, derive_seed
from .bootstrap import BootstrapConfig
from .decomposition import DecompositionResult, decompose_multiview
from .exceptions import BootstrapInfeasible, DimensionMismatch, InvalidInput
from .linalg import as_count, sign_fixed_qr

RANK_MODES = ("true", "estimated", "under", "over")
DEFAULT_SEED = 42   # of run_benchmark and of every CLI seed


@dataclass(frozen=True)
class SimConfig:
    """Planted-structure parameters for one synthetic draw."""

    n: int
    dims: tuple[int, ...]
    joint_rank: int
    individual_ranks: tuple[int, ...]
    angle_deg: float
    snr: float
    seed: int
    rank_mode: str = "true"
    sv_range: tuple[float, float] = (1.0, 2.0)

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n"))
        object.__setattr__(self, "joint_rank", as_count(self.joint_rank, "joint_rank"))
        object.__setattr__(self, "dims", tuple(as_count(p, "p") for p in self.dims))
        object.__setattr__(self, "individual_ranks",
                           tuple(as_count(r, "individual rank") for r in self.individual_ranks))
        sv_range = tuple(float(v) for v in self.sv_range)
        if len(sv_range) != 2 or not 0.0 < sv_range[0] <= sv_range[1] < math.inf:
            raise InvalidInput(f"sv_range must be lo, hi with 0 < lo <= hi < inf, got {sv_range}")
        object.__setattr__(self, "sv_range", sv_range)
        k = len(self.dims)
        if k < 2:
            raise InvalidInput("need at least two views")
        if self.n < 1 or min(self.dims) < 1:
            raise InvalidInput(f"n and every p must be >= 1, got n = {self.n}, p = {self.dims}")
        if len(self.individual_ranks) != k:
            raise InvalidInput("one individual rank per view is required")
        if self.rank_mode not in RANK_MODES:
            raise InvalidInput(f"rank_mode must be one of {RANK_MODES}")
        if not 0.0 < self.angle_deg <= 90.0:
            raise InvalidInput("angle_deg must lie in (0, 90]")
        if not self.snr > 0.0:
            raise InvalidInput("snr must be > 0 (math.inf for noiseless)")
        if self.joint_rank < 0 or min(self.individual_ranks) < 0:
            raise InvalidInput("ranks must be >= 0")
        r1 = self.individual_ranks[0]
        if any(r > r1 for r in self.individual_ranks[1:]):
            raise InvalidInput(
                "the rotation construction requires every individual rank to "
                "be <= the first view's individual rank")
        budget = self.joint_rank + r1 + sum(self.individual_ranks[1:])
        if budget > self.n:
            raise InvalidInput(
                f"construction needs {budget} orthogonal directions but n = {self.n}")
        for p, r_ind in zip(self.dims, self.individual_ranks):
            if self.joint_rank + r_ind > min(self.n, p):
                raise InvalidInput(
                    f"marginal rank {self.joint_rank + r_ind} exceeds min(n, p) "
                    f"for a {self.n} x {p} view")

    @property
    def marginal_ranks(self) -> tuple[int, ...]:
        return tuple(self.joint_rank + r for r in self.individual_ranks)


@dataclass(frozen=True)
class SimTruth:
    """Planted subspaces and signals behind one synthetic draw."""

    joint: np.ndarray
    individuals: list[np.ndarray]
    signals: list[np.ndarray]
    noise_sigmas: tuple[float, ...]
    planted_angle: float


def generate(cfg: SimConfig):
    """Draw ``(views, truth)`` deterministically from ``cfg.seed``."""
    rng = derive_rng(cfg.seed)
    n = cfg.n
    u = np.linalg.svd(rng.standard_normal((n, n)))[0]
    r_j = cfg.joint_rank
    joint = u[:, :r_j]
    first_block = u[:, r_j:r_j + cfg.individual_ranks[0]]
    individuals = [first_block]
    phi = math.radians(cfg.angle_deg)
    offset = r_j + cfg.individual_ranks[0]
    for r_ind in cfg.individual_ranks[1:]:
        fresh = u[:, offset:offset + r_ind]
        offset += r_ind
        individuals.append(math.cos(phi) * first_block[:, :r_ind] + math.sin(phi) * fresh)

    lo, hi = cfg.sv_range
    views = []
    signals = []
    sigmas = []
    for p, ind in zip(cfg.dims, individuals):
        sv_joint = rng.uniform(lo, hi, size=r_j)
        v_joint = sign_fixed_qr(rng.standard_normal((p, r_j)))
        sv_ind = rng.uniform(lo, hi, size=ind.shape[1])
        v_ind = sign_fixed_qr(rng.standard_normal((p, ind.shape[1])))
        x = (joint * sv_joint) @ v_joint.T + (ind * sv_ind) @ v_ind.T
        rank = r_j + ind.shape[1]
        if math.isinf(cfg.snr) or rank == 0:
            s = 0.0
        else:
            sigma_min = np.linalg.svd(x, compute_uv=False)[rank - 1]
            s = sigma_min / (cfg.snr * (math.sqrt(n) + math.sqrt(p)))
        z = s * rng.standard_normal((n, p))
        signals.append(x)
        sigmas.append(s)
        views.append(x + z)
    truth = SimTruth(joint=joint, individuals=individuals, signals=signals,
                     noise_sigmas=tuple(sigmas), planted_angle=cfg.angle_deg)
    return views, truth


def misspecify_ranks(true_ranks, mode: str, seed: int) -> tuple[int, ...]:
    """Perturb each rank by an independent uniform draw from {1, 2, 3}.

    ``mode="over"`` adds the draw, ``mode="under"`` subtracts it; an
    under-specified rank that would fall below 1 is clamped to 1 with a
    warning.
    """
    if mode not in ("under", "over"):
        raise InvalidInput("mode must be 'under' or 'over'")
    rng = derive_rng(seed)
    out = []
    for r in true_ranks:
        u = int(rng.integers(1, 4))
        r_new = r + u if mode == "over" else r - u
        if r_new < 1:
            warnings.warn(f"under-specified rank clamped to 1 (true rank {r}, draw {u})")
            r_new = 1
        out.append(r_new)
    return tuple(out)


@dataclass(frozen=True)
class ScoreTriple:
    """Subspace recovery metrics: true positive and false discovery proportions."""

    tpp: float
    fdp: float
    f_score: float


def score(estimate, truth) -> ScoreTriple:
    """TPP/FDP/F-score of an estimated subspace against the truth.

    TPP = trace(P_est P_true) / dim(true), FDP = trace((I - P_true) P_est)
    / dim(est), combined by F = 2 (1 - FDP) TPP / (1 - FDP + TPP). An empty
    truth scores TPP = 1, an empty estimate scores FDP = 0, and a vanishing
    denominator scores F = 0.
    """
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape[0] != truth.shape[0]:
        raise DimensionMismatch("estimate and truth must share the ambient dimension")
    dim_true = truth.shape[1]
    dim_est = estimate.shape[1]
    overlap = float(np.linalg.norm(truth.T @ estimate, "fro") ** 2)
    tpp = min(overlap / dim_true, 1.0) if dim_true else 1.0
    fdp = min(max(1.0 - overlap / dim_est, 0.0), 1.0) if dim_est else 0.0
    denom = 1.0 - fdp + tpp
    f = 2.0 * (1.0 - fdp) * tpp / denom if denom > 0 else 0.0
    return ScoreTriple(tpp=tpp, fdp=fdp, f_score=f)


def decomposition_f_score(result: DecompositionResult, truth: SimTruth) -> float:
    """Mean F-score over the joint and every individual subspace estimate."""
    scores = [score(result.joint, truth.joint).f_score]
    scores += [score(est, ind).f_score
               for est, ind in zip(result.individuals, truth.individuals)]
    return float(np.mean(scores))


@dataclass(frozen=True)
class BenchmarkRow:
    """Per-cell benchmark summary (F-scores also reported scaled by 10)."""

    angle_deg: float
    snr: float
    rank_mode: str
    mean_f_raw: float
    mean_f_scaled: float
    stderr_scaled: float
    reps: int
    cell_seed: int
    failures: tuple[str, ...]


def _requested_ranks(cfg: SimConfig, seed: int):
    if cfg.rank_mode == "estimated":
        return None
    if cfg.rank_mode == "true":
        return cfg.marginal_ranks
    return misspecify_ranks(cfg.marginal_ranks, cfg.rank_mode, seed)


def run_benchmark(grid, reps: int, master_seed: int = DEFAULT_SEED,
                  bootstrap_reps: int = BootstrapConfig.replicates) -> list[BenchmarkRow]:
    """Run ``reps`` seeded replications of every grid cell and average F-scores.

    Cell and replication seeds derive from ``(master_seed, cell_index,
    rep_index)``, so extending the grid leaves existing cells unchanged.
    Failed replications are recorded on the row rather than silently dropped.
    """
    reps = as_count(reps, "reps")
    if reps < 1:
        raise InvalidInput("reps must be >= 1")
    rows = []
    for cell_index, cfg in enumerate(grid):
        f_scores = []
        failures = []
        for rep in range(reps):
            rep_seed = derive_seed(master_seed, STREAM_CELL, cell_index, rep)
            cfg_rep = replace(cfg, seed=derive_seed(rep_seed, 0))
            views, truth = generate(cfg_rep)
            try:
                ranks = _requested_ranks(cfg, derive_seed(rep_seed, 1))
                result = decompose_multiview(
                    views, ranks=ranks,
                    bootstrap=BootstrapConfig(replicates=bootstrap_reps,
                                              seed=derive_seed(rep_seed, 2)))
            except (BootstrapInfeasible, InvalidInput) as exc:
                failures.append(f"rep {rep}: {exc}")
                continue
            f_scores.append(decomposition_f_score(result, truth))
        f_arr = np.asarray(f_scores)
        mean_f = float(f_arr.mean()) if f_arr.size else float("nan")
        stderr = float(f_arr.std(ddof=1) / np.sqrt(f_arr.size)) if f_arr.size > 1 else 0.0
        rows.append(BenchmarkRow(
            angle_deg=cfg.angle_deg,
            snr=cfg.snr,
            rank_mode=cfg.rank_mode,
            mean_f_raw=mean_f,
            mean_f_scaled=10.0 * mean_f,
            stderr_scaled=10.0 * stderr,
            reps=len(f_scores),
            cell_seed=derive_seed(master_seed, STREAM_CELL, cell_index),
            failures=tuple(failures),
        ))
    return rows
