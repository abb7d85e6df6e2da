import math
from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ppdecomp as ppd
from ppdecomp import (BootstrapConfig, BootstrapInfeasible, DimensionMismatch,
                      InvalidInput, ProductSpectrum, decompose,
                      decompose_multiview, epsilon_pair, individual_basis,
                      joint_basis, joint_rank, principal_spectrum,
                      product_spectrum, subspace_distance, theorem2_bounds,
                      truth_oracle)
from conftest import angled_pair, projector, qr_basis

LIGHT_BOOT = BootstrapConfig(replicates=12, seed=17)


# ---------------------------------------------------------------------------
# brute-force oracles on small ambient dimensions (full projector arithmetic)

def bf_epsilons(u1, u2, u1_hat, u2_hat):
    p1, p2 = projector(u1), projector(u2)
    q1, q2 = projector(u1_hat), projector(u2_hat)
    r = q1 @ q2 - p1 @ p2
    return np.linalg.norm(p1 @ r @ p2, 2), np.linalg.norm(r, 2)


def bf_epsilons_delta_form(u1, u2, u1_hat, u2_hat):
    # The delta combination from the cluster-bound proofs, with
    # delta_k = P_hat_k - P_k; must agree with the operator-difference form.
    p1, p2 = projector(u1), projector(u2)
    d1 = projector(u1_hat) - p1
    d2 = projector(u2_hat) - p2
    eps1 = np.linalg.norm(p1 @ (d1 + d2 + d1 @ d2) @ p2, 2)
    eps2 = np.linalg.norm(p1 @ d2 + d1 @ p2 + d1 @ d2, 2)
    return eps1, eps2


def bf_principal_spectrum(u1, u2):
    s = np.linalg.svd(projector(u1) @ projector(u2), compute_uv=False)
    return s[: min(u1.shape[1], u2.shape[1])]


def bf_joint_projector(bases, r_joint):
    """Projector onto the top eigenvectors of the n x n permutation-averaged product."""
    projs = [projector(u) for u in bases]
    t = sum(reduce(np.matmul, [projs[i] for i in perm])
            for perm in permutations(range(len(projs))))
    evals, evecs = np.linalg.eigh(t / math.factorial(len(projs)))
    evals, evecs = evals[::-1], evecs[:, ::-1]
    return projector(evecs[:, :r_joint]), evals[r_joint - 1] - evals[r_joint]


def bf_theorem2(joint_t, inds_t, view_hats, joint_hat):
    x1 = np.hstack([joint_t, inds_t[0]])
    x2 = np.hstack([joint_t, inds_t[1]])
    p1, p2 = projector(x1), projector(x2)
    q1, q2 = projector(view_hats[0]), projector(view_hats[1])
    r_joint = q1 @ q2 - p1 @ p2
    sym = np.linalg.norm(r_joint + r_joint.T, 2)
    tau = np.linalg.norm(projector(inds_t[0]) @ projector(inds_t[1]), 2)
    n = joint_t.shape[0]
    pj, pj_hat = projector(joint_t), projector(joint_hat)
    bounds = []
    for p, q in ((p1, q1), (p2, q2)):
        r_ind = (np.eye(n) - pj_hat) @ q - (np.eye(n) - pj) @ p
        bounds.append(2.0 * np.linalg.norm(r_ind, 2))
    return sym / (1.0 - tau), tuple(bounds), tau


def small_instance(seed):
    rng = np.random.default_rng(seed)
    n = 12
    q = qr_basis(n, 9, rng)
    joint, i1, i2 = q[:, :2], q[:, 2:4], q[:, 4:6]
    # estimates: perturbed versions of the true view bases
    hats = []
    for ind in (i1, i2):
        x = np.hstack([joint, ind])
        hats.append(np.linalg.qr(x + 0.3 * rng.standard_normal(x.shape))[0])
    return joint, (i1, i2), hats


# ---------------------------------------------------------------------------
# product spectrum and rank counting

def test_product_spectrum_identical_views():
    u = qr_basis(10, 3, np.random.default_rng(0))
    spec = product_spectrum(u, u, 0.1)
    assert np.allclose(spec.values, 1.0, atol=1e-10)
    assert spec.noise_threshold == pytest.approx(np.sqrt(0.84))
    assert spec.bootstrap_threshold == pytest.approx(0.9)


def test_product_spectrum_orthogonal_views():
    q = qr_basis(10, 6, np.random.default_rng(1))
    spec = product_spectrum(q[:, :3], q[:, 3:], 0.0)
    assert np.allclose(spec.values, 0.0, atol=1e-10)
    assert spec.bootstrap_threshold < 1.0  # capped just below one


@pytest.mark.parametrize("n,r1,r2", [(10, 3, 3), (10, 3, 6), (40, 12, 5), (12, 0, 4), (12, 4, 0)])
def test_product_spectrum_noise_cut_is_the_law_of_the_basis_ranks(n, r1, r2):
    # The ranks of the noise law are the bases' column counts; a rank-0
    # basis has no noise directions and a cut of 0.
    q = qr_basis(n, r1 + r2, np.random.default_rng(n + r1))
    spec = product_spectrum(q[:, :r1], q[:, r1:], 0.1)
    want = ppd.singular_value_threshold(ppd.noise_law(r1 / n, r2 / n))
    assert spec.noise_threshold == want
    assert (want == 0.0) == (min(r1, r2) == 0)


@pytest.mark.parametrize("eps1_hat", [-0.1, math.nan])
def test_product_spectrum_rejects_a_bad_epsilon(eps1_hat):
    # A NaN would make a NaN bootstrap cut, which joint_rank's max() drops.
    u = qr_basis(10, 3, np.random.default_rng(0))
    with pytest.raises(InvalidInput, match="eps1_hat"):
        product_spectrum(u, u, eps1_hat)


def test_joint_rank_counts_strictly_above_both_thresholds():
    spec = ProductSpectrum(values=np.array([1.0, 1.0, 0.6, 0.1]),
                           bootstrap_threshold=0.7, noise_threshold=0.8)
    assert joint_rank(spec) == 2
    low = ProductSpectrum(values=np.array([0.5, 0.2]),
                          bootstrap_threshold=0.9, noise_threshold=0.6)
    assert joint_rank(low) == 0


@pytest.mark.parametrize("values,bootstrap,noise", [([1.5, 0.2], 0.9, 0.6),
                                                     ([0.5, 0.2], math.nan, 0.6),
                                                     ([0.5, 0.2], 0.9, math.nan)],
                         ids=["value-above-one", "bootstrap-nan", "noise-nan"])
def test_product_spectrum_values_and_thresholds_lie_in_the_unit_interval(values, bootstrap,
                                                                         noise):
    with pytest.raises(InvalidInput, match=r"\[0, 1\]"):
        ProductSpectrum(values=np.array(values), bootstrap_threshold=bootstrap,
                        noise_threshold=noise)


def _hand_built_result(rows=(10, 10, 10), sigma_hats=(0.1, 0.2), binding_pair=(0, 1)):
    """A two-view result with a rank-1 joint basis, built without decomposing."""
    joint, *individuals = [np.eye(n, 3)[:, :1] if k == 0 else np.eye(n, 3)[:, 1:]
                           for k, n in enumerate(rows)]
    spectrum = ProductSpectrum(values=np.array([1.0]), bootstrap_threshold=0.9,
                               noise_threshold=0.5)
    return ppd.DecompositionResult(joint=joint, individuals=individuals, spectrum=spectrum,
                                   epsilon1_hat=0.1, sigma_hats=sigma_hats, view_bases=[],
                                   binding_pair=binding_pair)


def test_decomposition_result_built_by_hand_meets_the_result_rules():
    result = _hand_built_result()
    assert result.joint_rank == 1 and result.marginal_ranks == (3, 3)


@pytest.mark.parametrize("kwargs,match", [
    ({"binding_pair": (1, 1)}, "binding_pair"),
    ({"binding_pair": (0, 2)}, "binding_pair"),
    ({"binding_pair": (-1, 1)}, "binding_pair"),
    ({"binding_pair": (0, 1, 1)}, "binding_pair"),
    ({"binding_pair": (0.0, 1)}, "binding_pair"),
    ({"sigma_hats": (0.1,)}, "sigma_hats"),
    ({"sigma_hats": (0.1, 0.2, 0.3)}, "sigma_hats"),
    ({"rows": (10, 10, 9)}, "row count"),
    ({"rows": (8, 10, 10)}, "row count"),
    ({"rows": (0, 0, 0)}, "row count"),
], ids=["pair-repeated", "pair-out-of-range", "pair-negative", "pair-of-three", "pair-float",
        "one-sigma-hat", "three-sigma-hats", "individual-rows", "joint-rows", "zero-rows"])
def test_decomposition_result_rejects_a_broken_rule(kwargs, match):
    with pytest.raises(InvalidInput, match=match):
        _hand_built_result(**kwargs)


# ---------------------------------------------------------------------------
# joint and individual bases

def test_joint_basis_identical_views_spans_them():
    u = qr_basis(15, 4, np.random.default_rng(2))
    j = joint_basis([u, u], 4)
    assert subspace_distance(j, u) <= 1e-8


def test_joint_basis_rank_zero_is_empty():
    u = qr_basis(15, 4, np.random.default_rng(3))
    assert joint_basis([u, u], 0).shape == (15, 0)


def test_joint_basis_rejects_excessive_rank():
    u = qr_basis(15, 4, np.random.default_rng(4))
    with pytest.raises(InvalidInput):
        joint_basis([u, u], 5)


def test_joint_basis_rank_is_a_count():
    u = qr_basis(15, 4, np.random.default_rng(4))
    assert np.array_equal(joint_basis([u, u], 2.0), joint_basis([u, u], 2))
    for bad in (1.5, "2", None):
        with pytest.raises(InvalidInput, match="r_joint must be an integer"):
            joint_basis([u, u], bad)


def test_joint_and_individual_bases_reject_bad_inputs():
    u = qr_basis(15, 4, np.random.default_rng(4))
    with pytest.raises(InvalidInput, match="r_joint must be >= 0"):
        joint_basis([u, u], -1)
    with pytest.raises(DimensionMismatch):
        joint_basis([u, qr_basis(16, 4, np.random.default_rng(5))], 1)
    with pytest.raises(InvalidInput, match="exceeds the marginal rank"):
        individual_basis(u[:, :1], u)


def test_joint_basis_recovers_planted_joint_noiseless():
    rng = np.random.default_rng(5)
    q = qr_basis(20, 8, rng)
    joint, i1, i2 = q[:, :2], q[:, 2:5], q[:, 5:8]
    u1 = np.hstack([joint, i1])
    u2 = np.hstack([joint, i2])
    j = joint_basis([u1, u2], 2)
    assert subspace_distance(j, joint) <= 1e-8


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(k_views=st.sampled_from([2, 3]), n=st.integers(8, 20),
       r_joint=st.integers(1, 3), noise=st.floats(0.0, 0.4),
       seed=st.integers(0, 2**32 - 1))
def test_joint_basis_matches_brute_force_projectors(k_views, n, r_joint, noise, seed):
    # Planted joint directions plus one or two individual ones per view, each
    # view basis perturbed and re-orthonormalized.
    rng = np.random.default_rng(seed)
    r_ind = [int(rng.integers(1, 3)) for _ in range(k_views)]
    assume(r_joint + sum(r_ind) <= n)
    q = qr_basis(n, r_joint + sum(r_ind), rng)
    bases, col = [], r_joint
    for r in r_ind:
        x = np.hstack([q[:, :r_joint], q[:, col:col + r]])
        col += r
        bases.append(np.linalg.qr(x + noise * rng.standard_normal(x.shape))[0])
    want, gap = bf_joint_projector(bases, r_joint)
    assume(gap >= 1e-3)
    got = joint_basis(bases, r_joint)
    assert got.shape == (n, r_joint)
    assert np.max(np.abs(projector(got) - want)) <= 1e-10


def test_individual_basis_with_empty_joint_spans_view():
    u = qr_basis(12, 5, np.random.default_rng(6))
    ind = individual_basis(u, np.zeros((12, 0)))
    assert subspace_distance(ind, u) <= 1e-10


def test_individual_basis_rank_equal_joint_is_empty():
    u = qr_basis(12, 3, np.random.default_rng(7))
    assert individual_basis(u, u).shape == (12, 0)


def test_individual_basis_recovers_planted_individual_noiseless():
    rng = np.random.default_rng(8)
    q = qr_basis(20, 8, rng)
    joint, i1 = q[:, :3], q[:, 3:6]
    u1 = np.hstack([joint, i1])
    ind = individual_basis(u1, joint)
    assert subspace_distance(ind, i1) <= 1e-8
    assert np.max(np.abs(joint.T @ ind)) <= 1e-10


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n=st.integers(6, 20), rk=st.integers(1, 6), joint_frac=st.floats(0.0, 1.0),
       noise=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
@example(n=10, rk=4, joint_frac=0.0, noise=0.3, seed=1)   # empty joint
@example(n=10, rk=4, joint_frac=1.0, noise=0.3, seed=2)   # r_joint = rk
@example(n=10, rk=4, joint_frac=0.5, noise=0.0, seed=3)   # joint inside the view
def test_individual_basis_matches_brute_force_projectors(n, rk, joint_frac, noise, seed):
    # The joint basis is a perturbation of part of the view, as estimated
    # joint bases are; the reference is the n x n product (I - P_J) P_k.
    rng = np.random.default_rng(seed)
    assume(rk < n)
    r_joint = int(round(joint_frac * rk))
    u = qr_basis(n, rk, rng)
    x = u[:, :r_joint] + noise * rng.standard_normal((n, r_joint))
    joint = np.linalg.qr(x)[0] if r_joint else np.zeros((n, 0))
    left, s, _ = np.linalg.svd((np.eye(n) - projector(joint)) @ projector(u))
    r_ind = rk - r_joint
    assume(r_ind == 0 or s[r_ind - 1] - s[r_ind] >= 1e-3)
    got = individual_basis(u, joint)
    assert got.shape == (n, r_ind)
    assert np.max(np.abs(projector(got) - projector(left[:, :r_ind]))) <= 1e-10
    assert np.max(np.abs(joint.T @ got), initial=0.0) <= 1e-10


# ---------------------------------------------------------------------------
# oracle quantities

def test_true_epsilons_zero_perturbation():
    u1 = qr_basis(9, 3, np.random.default_rng(9))
    u2 = qr_basis(9, 4, np.random.default_rng(10))
    eps1, eps2 = epsilon_pair(u1, u2, u1, u2)
    assert eps1 <= 1e-12 and eps2 <= 1e-12


def test_true_epsilons_missed_joint_direction():
    # A joint direction entirely absent from one estimate forces eps1 = 1.
    q = qr_basis(10, 4, np.random.default_rng(11))
    joint = q[:, :2]
    off = q[:, 2:]
    eps1, _ = epsilon_pair(joint, joint, off, joint)
    assert eps1 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_epsilons_match_brute_force(seed):
    joint, inds, hats = small_instance(seed)
    u1 = np.hstack([joint, inds[0]])
    u2 = np.hstack([joint, inds[1]])
    got = epsilon_pair(u1, u2, hats[0], hats[1])
    want = bf_epsilons(u1, u2, hats[0], hats[1])
    want_delta = bf_epsilons_delta_form(u1, u2, hats[0], hats[1])
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    assert got[1] == pytest.approx(want[1], abs=1e-10)
    assert want[0] == pytest.approx(want_delta[0], abs=1e-10)
    assert want[1] == pytest.approx(want_delta[1], abs=1e-10)
    spec = principal_spectrum(hats[0], hats[1])
    assert np.allclose(spec, bf_principal_spectrum(hats[0], hats[1]), atol=1e-10)


def _epsilon_bases(n, dims, case, rng):
    """Bases (u1, u2, u1_hat, u2_hat) of the given ranks for the property test below.

    "independent": four Haar frames; "exact": the estimates equal the truths;
    "shared": column subsets of one orthogonal frame, so that bases share
    columns and stacks are rank-deficient; "perturbed": estimates are noisy
    copies of the truths, padded with fresh columns.
    """
    if case == "exact":
        u1, u2 = (qr_basis(n, k, rng) for k in dims[:2])
        return u1, u2, u1, u2
    if case == "shared":
        q = qr_basis(n, n, rng)
        return tuple(q[:, np.sort(rng.choice(n, k, replace=False))] for k in dims)
    u1, u2 = (qr_basis(n, k, rng) for k in dims[:2])
    if case == "independent":
        return u1, u2, qr_basis(n, dims[2], rng), qr_basis(n, dims[3], rng)
    hats = []
    for u, r in ((u1, dims[2]), (u2, dims[3])):
        x = np.hstack([u, rng.standard_normal((n, n))])[:, :r]
        hats.append(np.linalg.qr(x + 0.3 * rng.standard_normal(x.shape))[0])
    return (u1, u2, *hats)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(n=st.integers(6, 20), fracs=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       case=st.sampled_from(["independent", "exact", "shared", "perturbed"]),
       seed=st.integers(0, 2**32 - 1))
@example(n=8, fracs=[0.0, 0.5, 0.5, 0.5], case="independent", seed=1)   # k1 = 0
@example(n=8, fracs=[0.5, 0.5, 0.5, 0.5], case="exact", seed=2)         # u_hat = u
@example(n=8, fracs=[0.75, 0.5, 0.75, 0.5], case="perturbed", seed=3)  # r1 + k1 > n
@example(n=8, fracs=[0.75, 0.75, 0.75, 0.75], case="shared", seed=4)
def test_epsilon_pair_matches_brute_force_projectors(n, fracs, case, seed):
    dims = [int(round(f * n)) for f in fracs]
    bases = _epsilon_bases(n, dims, case, np.random.default_rng(seed))
    got = epsilon_pair(*bases)
    want = bf_epsilons(*bases)
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    assert got[1] == pytest.approx(want[1], abs=1e-10)


@pytest.mark.parametrize("case,dims", [("independent", (4, 3, 5, 4)), ("exact", (4, 3, 4, 3)),
                                       ("shared", (4, 5, 3, 4)), ("perturbed", (4, 3, 6, 5)),
                                       ("independent", (0, 3, 5, 4))],
                         ids=["independent", "exact", "shared", "perturbed", "k1=0"])
def test_epsilon_pair_stack_equals_per_item(case, dims):
    # Stacked bases give one (epsilon_1, epsilon_2) pair per item, each bit
    # for bit the floats of its 2-D call.
    rng = np.random.default_rng(sum(dims))
    draws = [_epsilon_bases(12, dims, case, rng) for _ in range(5)]
    stacked = epsilon_pair(*(np.stack(bases) for bases in zip(*draws)))
    alone = [epsilon_pair(*bases) for bases in draws]
    assert all(isinstance(v, float) for pair in alone for v in pair)
    assert stacked[0].shape == stacked[1].shape == (5,)
    assert np.array_equal(stacked[0], [pair[0] for pair in alone])
    assert np.array_equal(stacked[1], [pair[1] for pair in alone])


def test_theorem1_intervals_noiseless_collapse():
    rng = np.random.default_rng(12)
    i1, i2 = angled_pair(16, 3, 3, 40.0, rng)
    joint = np.linalg.qr(
        (np.eye(16) - projector(np.hstack([i1, i2]))) @ rng.standard_normal((16, 2)))[0]
    ivals = truth_oracle(joint, (i1, i2), 0.0, 0.0).cluster_intervals
    assert ivals[0] == (1.0, 1.0)
    assert ivals[1][0] == pytest.approx(math.cos(math.radians(40.0)), abs=1e-8)
    assert ivals[1][1] == pytest.approx(math.cos(math.radians(40.0)), abs=1e-8)
    assert ivals[2] == (0.0, 0.0)


def test_theorem1_intervals_degenerate_epsilon():
    rng = np.random.default_rng(13)
    i1, i2 = angled_pair(16, 3, 3, 40.0, rng)
    joint = qr_basis(16, 2, rng)
    ivals = truth_oracle(joint, (i1, i2), 1.2, 0.4).cluster_intervals
    assert ivals[0] == (0.0, 1.0)


def test_truth_oracle_orthogonal_individuals():
    rng = np.random.default_rng(14)
    q = qr_basis(20, 8, rng)
    oracle = truth_oracle(q[:, :2], (q[:, 2:5], q[:, 5:8]), 0.1, 0.2)
    assert oracle.nonorth_rank == 0
    assert oracle.tau_max == 0.0 and oracle.tau_min == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_theorem2_matches_brute_force(seed):
    joint, inds, hats = small_instance(seed)
    j_hat = joint_basis(hats, 2)
    ind_hats = [individual_basis(hats[k], j_hat) for k in range(2)]
    rep = theorem2_bounds(joint, inds, hats, j_hat, ind_hats)
    want_joint, want_inds, want_tau = bf_theorem2(joint, inds, hats, j_hat)
    assert rep.joint_bound == pytest.approx(want_joint, abs=1e-10)
    assert rep.individual_bounds[0] == pytest.approx(want_inds[0], abs=1e-10)
    assert rep.individual_bounds[1] == pytest.approx(want_inds[1], abs=1e-10)
    assert rep.tau_max == pytest.approx(want_tau, abs=1e-10)


def test_theorem2_zero_perturbation():
    rng = np.random.default_rng(15)
    q = qr_basis(14, 6, rng)
    joint, i1, i2 = q[:, :2], q[:, 2:4], q[:, 4:6]
    hats = [np.hstack([joint, i1]), np.hstack([joint, i2])]
    rep = theorem2_bounds(joint, (i1, i2), hats, joint, [i1, i2])
    assert rep.joint_bound <= 1e-10
    assert max(rep.individual_bounds) <= 1e-10
    assert rep.joint_distance <= 1e-10
    assert rep.hypothesis_ok


# ---------------------------------------------------------------------------
# full decomposition

def _noiseless_pair(seed, joint_rank=3, angle=90.0):
    cfg = ppd.SimConfig(n=30, dims=(35, 40), joint_rank=joint_rank,
                        individual_ranks=(3, 2), angle_deg=angle, snr=np.inf,
                        seed=seed)
    return ppd.generate(cfg)


def test_decompose_duplicated_noiseless_view():
    rng = np.random.default_rng(16)
    y = qr_basis(20, 3, rng) @ np.diag([3.0, 2.0, 1.0]) @ qr_basis(25, 3, rng).T
    res = decompose(y, y.copy(), ranks=(3, 3), bootstrap=LIGHT_BOOT)
    assert res.joint_rank == 3
    assert res.individuals[0].shape == (20, 0)
    assert res.individuals[1].shape == (20, 0)


def test_decompose_orthogonal_noiseless_views():
    rng = np.random.default_rng(17)
    q = qr_basis(20, 6, rng)
    y1 = q[:, :3] @ rng.standard_normal((3, 25))
    y2 = q[:, 3:] @ rng.standard_normal((3, 25))
    res = decompose(y1, y2, ranks=(3, 3), bootstrap=LIGHT_BOOT)
    assert res.joint_rank == 0
    assert res.individuals[0].shape[1] == 3


def test_decompose_noiseless_recovers_planted_structure():
    views, truth = _noiseless_pair(seed=18, angle=50.0)
    res = decompose(views[0], views[1], ranks=(6, 5), bootstrap=LIGHT_BOOT)
    assert res.joint_rank == 3
    assert subspace_distance(res.joint, truth.joint) <= 1e-8
    assert subspace_distance(res.individuals[0], truth.individuals[0]) <= 1e-8
    assert subspace_distance(res.individuals[1], truth.individuals[1]) <= 1e-8


def test_decompose_order_invariance():
    cfg = ppd.SimConfig(n=50, dims=(80, 100), joint_rank=4, individual_ranks=(5, 4),
                        angle_deg=30.0, snr=2.0, seed=19)
    views, _ = ppd.generate(cfg)
    boot = BootstrapConfig(replicates=25, seed=23)
    fwd = decompose(views[0], views[1], ranks=(9, 8), bootstrap=boot)
    rev = decompose(views[1], views[0], ranks=(8, 9), bootstrap=boot)
    assert fwd.joint_rank == rev.joint_rank
    assert fwd.epsilon1_hat == rev.epsilon1_hat
    assert subspace_distance(fwd.joint, rev.joint) <= 1e-8


VIEW_DRAWS = dict(n=st.integers(20, 40), p1=st.integers(12, 60), p2=st.integers(12, 60),
                  ind=st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  angle=st.sampled_from([30.0, 60.0, 90.0]),
                  snr=st.sampled_from([0.5, 2.0, math.inf]), seed=st.integers(0, 2**32 - 1))


def _property_views(n, p1, p2, ind, angle, snr, seed):
    cfg = ppd.SimConfig(n=n, dims=(p1, p2), joint_rank=2,
                        individual_ranks=sorted(ind, reverse=True),
                        angle_deg=angle, snr=snr, seed=seed)
    return ppd.generate(cfg)[0]


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(**VIEW_DRAWS)
def test_decompose_view_swap_property(n, p1, p2, ind, angle, snr, seed):
    views = _property_views(n, p1, p2, ind, angle, snr, seed)
    boot = BootstrapConfig(replicates=10, seed=seed % 1000)
    fwd = decompose(views[0], views[1], bootstrap=boot)
    rev = decompose(views[1], views[0], bootstrap=boot)
    assert rev.marginal_ranks == fwd.marginal_ranks[::-1]
    assert rev.joint_rank == fwd.joint_rank
    assert rev.epsilon1_hat == fwd.epsilon1_hat
    assert np.allclose(rev.spectrum.values, fwd.spectrum.values, rtol=0.0, atol=1e-12)
    assert np.max(np.abs(projector(rev.joint) - projector(fwd.joint)), initial=0.0) <= 1e-8
    for k in range(2):
        assert np.max(np.abs(projector(rev.individuals[1 - k]) - projector(fwd.individuals[k])),
                      initial=0.0) <= 1e-8


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(**VIEW_DRAWS, exponent=st.floats(-6.0, 6.0), which=st.sampled_from([0, 1]))
# Equal widths and ranks: the bootstrap's view order must not follow the scale.
@example(n=20, p1=12, p2=12, ind=(1, 1), angle=30.0, snr=2.0, seed=1, exponent=2.0, which=0)
def test_decompose_view_scale_property(n, p1, p2, ind, angle, snr, seed, exponent, which):
    views = _property_views(n, p1, p2, ind, angle, snr, seed)
    boot = BootstrapConfig(replicates=10, seed=seed % 1000)
    base = decompose(views[0], views[1], bootstrap=boot)
    views[which] = views[which] * 10.0**exponent
    scaled = decompose(views[0], views[1], bootstrap=boot)
    assert scaled.marginal_ranks == base.marginal_ranks
    assert scaled.joint_rank == base.joint_rank
    assert scaled.epsilon1_hat == pytest.approx(base.epsilon1_hat, rel=1e-12, abs=1e-15)


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(**VIEW_DRAWS, which=st.sampled_from([0, 1]))
def test_decompose_duplicate_view_property(n, p1, p2, ind, angle, snr, seed, which):
    # A view paired with a copy of itself is all joint.
    y = _property_views(n, p1, p2, ind, angle, snr, seed)[which]
    res = decompose(y, y.copy(), bootstrap=BootstrapConfig(replicates=10, seed=seed % 1000))
    assert res.marginal_ranks[0] == res.marginal_ranks[1]
    assert res.joint_rank == res.marginal_ranks[0]
    assert res.individuals[0].shape[1] == res.individuals[1].shape[1] == 0


@settings(max_examples=10, derandomize=True, database=None, deadline=None)
@given(**VIEW_DRAWS, which=st.sampled_from([0, 1]), explicit=st.booleans())
def test_decompose_rank_zero_view_property(n, p1, p2, ind, angle, snr, seed, which, explicit):
    # A rank-0 view, whether all zero or truncated at 0, shares nothing.
    views = _property_views(n, p1, p2, ind, angle, snr, seed)
    ranks = None
    if explicit:
        ranks = [ppd.select_rank(y).rank for y in views]
        ranks[which] = 0
    else:
        views[which] = np.zeros_like(views[which])
    res = decompose(*views, ranks=ranks, bootstrap=BootstrapConfig(replicates=10, seed=seed % 1000))
    assert res.marginal_ranks[which] == 0
    assert res.joint_rank == 0
    assert res.spectrum.noise_threshold == 0.0
    assert res.joint.shape == (n, 0)
    assert res.individuals[1 - which].shape[1] == res.marginal_ranks[1 - which]


def test_decompose_result_invariants():
    # Every rank the result reports is read off its bases, whatever the rank
    # mode and however many views.
    for dims, individual_ranks in (((80, 100), (5, 4)), ((80, 100, 90), (5, 4, 3))):
        cfg = ppd.SimConfig(n=50, dims=dims, joint_rank=4, individual_ranks=individual_ranks,
                            angle_deg=90.0, snr=2.0, seed=20)
        views, _ = ppd.generate(cfg)
        for mode in ("estimated", "over", "under"):
            ranks = (None if mode == "estimated"
                     else ppd.misspecify_ranks(cfg.marginal_ranks, mode, 20))
            res = decompose_multiview(views, ranks=ranks,
                                      bootstrap=BootstrapConfig(replicates=25, seed=3))
            assert res.marginal_ranks == tuple(b.shape[1] for b in res.view_bases)
            assert ranks is None or res.marginal_ranks == ranks
            assert res.joint.shape[1] == res.joint_rank
            for k in range(len(dims)):
                ind = res.individuals[k]
                assert ind.shape[1] == res.marginal_ranks[k] - res.joint_rank
                if res.joint_rank and ind.shape[1]:
                    assert np.max(np.abs(res.joint.T @ ind)) <= 1e-6
            assert np.all(res.spectrum.values >= 0.0) and np.all(res.spectrum.values <= 1.0)
            assert 0.0 <= res.spectrum.bootstrap_threshold <= 1.0
            assert 0.0 <= res.spectrum.noise_threshold <= 1.0


def test_decompose_row_count_mismatch():
    with pytest.raises(DimensionMismatch):
        decompose(np.ones((10, 4)), np.ones((9, 4)))


@pytest.mark.parametrize("ranks,view", [((99, 2), "view 1"), ((2, -1), "view 2")])
def test_decompose_explicit_rank_out_of_range_names_the_view(ranks, view):
    rng = np.random.default_rng(22)
    with pytest.raises(InvalidInput, match=f"out of range for {view} "):
        decompose(rng.standard_normal((10, 20)), rng.standard_normal((10, 22)),
                  ranks=ranks, bootstrap=LIGHT_BOOT)


def test_decompose_infeasible_ranks_error():
    rng = np.random.default_rng(21)
    y1 = rng.standard_normal((10, 20))
    y2 = rng.standard_normal((10, 22))
    with pytest.raises(BootstrapInfeasible):
        decompose(y1, y2, ranks=(6, 6), bootstrap=LIGHT_BOOT)


def test_decompose_zero_rank_views_still_well_formed():
    res = decompose(np.zeros((8, 10)), np.zeros((8, 12)), bootstrap=LIGHT_BOOT)
    assert res.joint_rank == 0
    assert res.marginal_ranks == (0, 0)
    assert res.joint.shape == (8, 0)
    assert res.spectrum.values.size == 0


# ---------------------------------------------------------------------------
# multi-view

def test_multiview_two_views_consistent_with_decompose():
    cfg = ppd.SimConfig(n=40, dims=(50, 60), joint_rank=3, individual_ranks=(3, 3),
                        angle_deg=45.0, snr=2.0, seed=22)
    views, _ = ppd.generate(cfg)
    boot = BootstrapConfig(replicates=20, seed=31)
    a = decompose(views[0], views[1], ranks=(6, 6), bootstrap=boot)
    b = decompose_multiview(views, ranks=(6, 6), bootstrap=boot)
    assert a.joint_rank == b.joint_rank
    assert a.epsilon1_hat == b.epsilon1_hat
    assert subspace_distance(a.joint, b.joint) <= 1e-10


def test_multiview_min_pairwise_rule():
    # Views 1 and 2 share a 3-dim subspace, view 3 only 2 of those directions;
    # the pairwise joint ranks are (3, 2, 2), so the common rank must be 2.
    rng = np.random.default_rng(23)
    q = qr_basis(24, 9, rng)
    shared, extras = q[:, :3], q[:, 3:]
    def view(cols, p, s):
        return np.hstack([shared[:, :cols[0]], extras[:, cols[1]:cols[2]]]) @ \
               qr_basis(p, cols[0] + cols[2] - cols[1], rng).T * s
    y1 = view((3, 0, 2), 30, 1.7)
    y2 = view((3, 2, 4), 32, 1.3)
    y3 = view((2, 4, 6), 34, 1.1)
    res = decompose_multiview([y1, y2, y3], ranks=(5, 5, 4), bootstrap=LIGHT_BOOT)
    assert res.joint_rank == 2
    assert subspace_distance(res.joint, shared[:, :2]) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 6])
def test_multiview_result_independent_of_view_order(seed):
    # Widths that do not ascend: every ordering of the views must seed the
    # same pairs and bind the same two views, so the estimate is exact and
    # the bases agree to round-off.
    cfg = ppd.SimConfig(n=60, dims=(40, 50, 45), joint_rank=3, individual_ranks=(3, 3, 3),
                        angle_deg=60.0, snr=1.0, seed=seed)
    views, _ = ppd.generate(cfg)
    boot = BootstrapConfig(replicates=20, seed=3)
    base = decompose_multiview(views, bootstrap=boot)
    for perm in permutations(range(3)):
        res = decompose_multiview([views[k] for k in perm], bootstrap=boot)
        assert res.marginal_ranks == tuple(base.marginal_ranks[k] for k in perm)
        assert res.joint_rank == base.joint_rank
        assert res.epsilon1_hat == base.epsilon1_hat
        assert sorted(perm[k] for k in res.binding_pair) == list(base.binding_pair)
        assert subspace_distance(res.joint, base.joint) <= 1e-10
        for k, view in enumerate(perm):
            assert subspace_distance(res.individuals[k], base.individuals[view]) <= 1e-10


def test_multiview_noiseless_three_views():
    cfg = ppd.SimConfig(n=35, dims=(40, 45, 50), joint_rank=3,
                        individual_ranks=(4, 3, 3), angle_deg=90.0, snr=np.inf,
                        seed=24)
    views, truth = ppd.generate(cfg)
    res = decompose_multiview(views, ranks=cfg.marginal_ranks, bootstrap=LIGHT_BOOT)
    assert res.joint_rank == 3
    assert subspace_distance(res.joint, truth.joint) <= 1e-8
    for k in range(3):
        assert subspace_distance(res.individuals[k], truth.individuals[k]) <= 1e-8


@pytest.mark.parametrize("n,dims", [(40, (60, 90)), (90, (30, 50))], ids=["wide", "tall"])
def test_set_up_factors_each_view_once(monkeypatch, n, dims):
    # Outside the replicate loop, each view is factored by one eigh of its
    # smaller Gram matrix, which serves both the rank rule and the
    # truncation, and each view's noise in a pair the same way: no SVD or QR
    # of an n x p operand, one eigh per view and one per view of each pair.
    import ppdecomp.bootstrap
    import ppdecomp.decomposition

    cfg = ppd.SimConfig(n=n, dims=dims, joint_rank=3, individual_ranks=(3, 3),
                        angle_deg=60.0, snr=2.0, seed=2)
    views = ppd.generate(cfg)[0]
    calls, in_loop = [], [False]
    for name in ("svd", "qr", "eigh"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if not in_loop[0]:
                calls.append((_name, np.shape(a)))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    haar_pair = ppdecomp.bootstrap._haar_pair_rng
    estimate = ppdecomp.decomposition.estimate_epsilon1

    def first_block(*args):
        in_loop[0] = True
        return haar_pair(*args)

    def pair(*args):
        out = estimate(*args)
        in_loop[0] = False
        return out

    monkeypatch.setattr(ppdecomp.bootstrap, "_haar_pair_rng", first_block)
    monkeypatch.setattr(ppdecomp.decomposition, "estimate_epsilon1", pair)
    decompose(*views, bootstrap=BootstrapConfig(replicates=4, seed=1))
    assert calls and in_loop == [False]
    shapes = {(n, p) for p in dims} | {(p, n) for p in dims}
    assert not [c for c in calls if c[0] != "eigh" and c[1] in shapes]
    grams = sorted(shape for name, shape in calls
                   if name == "eigh" and shape in {(min(n, p),) * 2 for p in dims})
    assert grams == sorted(2 * [(min(n, p),) * 2 for p in dims])


def test_multiview_permutation_guard_for_many_views():
    views = [np.ones((6, 4)) for _ in range(6)]
    with pytest.raises(InvalidInput):
        decompose_multiview(views, ranks=(1,) * 6, bootstrap=LIGHT_BOOT)


def test_multiview_needs_two_views():
    with pytest.raises(InvalidInput):
        decompose_multiview([np.ones((5, 3))])


def test_multiview_needs_one_rank_per_view():
    rng = np.random.default_rng(23)
    views = [rng.standard_normal((10, 20)), rng.standard_normal((10, 22))]
    with pytest.raises(InvalidInput, match="expected 2 ranks, got 3"):
        decompose_multiview(views, ranks=(2, 2, 2), bootstrap=LIGHT_BOOT)


def test_multiview_ranks_must_be_integers():
    rng = np.random.default_rng(23)
    views = [rng.standard_normal((10, 20)), rng.standard_normal((10, 22))]
    for ranks in ((2.7, 3), (2, math.nan), (2, "3"), "3,3", "2"):
        with pytest.raises(InvalidInput, match="rank"):
            decompose_multiview(views, ranks=ranks, bootstrap=LIGHT_BOOT)
    # Integral values of any numeric type, numpy arrays included, are ranks.
    base = decompose_multiview(views, ranks=(2, 3), bootstrap=LIGHT_BOOT)
    for ranks in ((2.0, 3), np.array([2, 3]), (np.int32(2), np.float64(3.0))):
        res = decompose_multiview(views, ranks=ranks, bootstrap=LIGHT_BOOT)
        assert res.marginal_ranks == (2, 3)
        assert res.epsilon1_hat == base.epsilon1_hat


def test_multiview_ranks_auto_is_spelled_none():
    # None is the library's one spelling of automatic ranks (the CLI maps
    # --ranks auto to it).
    rng = np.random.default_rng(23)
    views = [rng.standard_normal((10, 20)), rng.standard_normal((10, 22))]
    with pytest.raises(InvalidInput, match="ranks must be None or one integer per view"):
        decompose_multiview(views, ranks="auto", bootstrap=LIGHT_BOOT)


def test_bootstrap_seed_is_a_non_negative_integer():
    rng = np.random.default_rng(23)
    views = [rng.standard_normal((10, 20)), rng.standard_normal((10, 22))]
    for seed in (2.5, "a", math.nan, -1):
        with pytest.raises(InvalidInput, match="seed must be"):
            decompose_multiview(views, bootstrap=BootstrapConfig(replicates=12, seed=seed))
    base = decompose_multiview(views, bootstrap=LIGHT_BOOT)
    for seed in (17.0, np.int64(17), np.uint32(17)):
        res = decompose_multiview(views, bootstrap=BootstrapConfig(replicates=12, seed=seed))
        assert res.epsilon1_hat == base.epsilon1_hat


def test_joint_rank_recovered_at_high_snr_monte_carlo():
    # True marginal ranks, SNR 2, orthogonal individuals: the threshold pair
    # should isolate the four joint directions in nearly every draw.
    hits = 0
    for seed in range(50):
        cfg = ppd.SimConfig(n=50, dims=(80, 100), joint_rank=4,
                            individual_ranks=(5, 4), angle_deg=90.0, snr=2.0,
                            seed=seed)
        views, _ = ppd.generate(cfg)
        res = decompose(views[0], views[1], ranks=cfg.marginal_ranks,
                        bootstrap=BootstrapConfig(replicates=40, seed=seed + 900))
        hits += res.joint_rank == 4
    assert hits >= 45
