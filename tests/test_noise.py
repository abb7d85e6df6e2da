import math

import numpy as np
import pytest

from ppdecomp import (InvalidInput, density_sv_scale, noise_cdf, noise_density,
                      noise_law, sample_noise_spectrum,
                      singular_value_threshold)


def test_law_at_half_half_reaches_one():
    assert noise_law(0.5, 0.5).lambda_plus == pytest.approx(1.0, abs=1e-12)


def test_law_symmetric_ratios_collapse_lower_edge():
    for q in (0.1, 0.25, 0.4):
        law = noise_law(q, q)
        assert law.lambda_minus == pytest.approx(0.0, abs=1e-12)


def test_law_example_values():
    # Direct evaluation of the edge formulas at (0.2, 0.3).
    law = noise_law(0.2, 0.3)
    spread = 2 * math.sqrt(0.2 * 0.3 * 0.8 * 0.7)
    assert law.lambda_plus == pytest.approx(0.38 + spread, abs=1e-12)
    assert law.lambda_minus == pytest.approx(0.38 - spread, abs=1e-12)
    assert law.lambda_plus == pytest.approx(0.74661, abs=1e-5)
    assert law.lambda_minus == pytest.approx(0.01339, abs=1e-5)


def test_law_point_masses():
    law = noise_law(0.3, 0.4)
    assert law.mass_at_zero == pytest.approx(0.7)
    assert law.mass_at_one == 0.0
    heavy = noise_law(0.7, 0.6)
    assert heavy.mass_at_one == pytest.approx(0.3)


def test_law_symmetry_in_arguments():
    a = noise_law(0.15, 0.42)
    b = noise_law(0.42, 0.15)
    assert (a.lambda_minus, a.lambda_plus, a.mass_at_zero, a.mass_at_one) == \
           (b.lambda_minus, b.lambda_plus, b.mass_at_zero, b.mass_at_one)


def test_law_rejects_out_of_range():
    with pytest.raises(InvalidInput):
        noise_law(-0.1, 0.5)
    with pytest.raises(InvalidInput):
        noise_law(0.2, 1.3)


def test_density_zero_outside_support():
    law = noise_law(0.2, 0.3)
    assert noise_density(law, law.lambda_minus / 2) == 0.0
    assert noise_density(law, (1 + law.lambda_plus) / 2) == 0.0


def test_density_total_mass_with_atoms():
    # Adaptive-quadrature oracle for the continuous integral.
    from scipy import integrate
    law = noise_law(0.2, 0.35)
    integral = integrate.quad(lambda x: noise_density(law, x),
                              law.lambda_minus, law.lambda_plus, limit=300)[0]
    assert integral + law.mass_at_zero + law.mass_at_one == pytest.approx(1.0, abs=1e-4)


def test_density_small_near_edges():
    law = noise_law(0.2, 0.3)
    assert 0.0 <= noise_density(law, law.lambda_minus + 1e-9) <= 1e-3
    assert 0.0 <= noise_density(law, law.lambda_plus - 1e-9) <= 1e-3


def pointwise_density(law, lam):
    # The one-point-at-a-time formula that the array evaluation replaced.
    if lam <= law.lambda_minus or lam >= law.lambda_plus:
        return 0.0
    num = np.sqrt((law.lambda_plus - lam) * (lam - law.lambda_minus))
    return float(num / (2.0 * np.pi * lam * (1.0 - lam)))


@pytest.mark.parametrize("q1,q2", [(0.2, 0.3), (0.1, 0.1), (0.7, 0.6), (0.5, 0.5)])
def test_density_on_arrays_matches_pointwise_formula_bit_for_bit(q1, q2):
    law = noise_law(q1, q2)
    lams = np.concatenate([np.linspace(law.lambda_minus, law.lambda_plus, 201),
                           [-0.5, 0.0, 1.0, 1.5]])
    expected = np.array([pointwise_density(law, lam) for lam in lams])
    assert np.array_equal(noise_density(law, lams), expected)
    s = np.sqrt(np.clip(lams, 0.0, 1.0))
    assert np.array_equal(density_sv_scale(law, s),
                          np.array([2.0 * si * pointwise_density(law, si * si) for si in s]))
    assert isinstance(noise_density(law, lams[100]), float)


def test_noise_cdf_normalization():
    law = noise_law(0.25, 0.4)
    assert noise_cdf(law, law.lambda_plus) == pytest.approx(1.0, abs=1e-9)


def test_noise_cdf_is_zero_below_the_support():
    law = noise_law(0.25, 0.4)
    assert law.lambda_minus > 0.0
    assert noise_cdf(law, 0.5 * law.lambda_minus) == 0.0


def test_sv_threshold_values():
    assert singular_value_threshold(noise_law(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert singular_value_threshold(noise_law(0.0, 0.3)) == 0.0
    assert singular_value_threshold(noise_law(0.2, 0.3)) == pytest.approx(0.86406, abs=1e-5)


def test_lambda_plus_monotone_on_grid():
    grid = np.arange(0.0, 0.51, 0.05)
    for q2 in grid:
        values = [noise_law(q1, q2).lambda_plus for q1 in grid]
        assert np.all(np.diff(values) >= -1e-12)


def test_sample_full_rank_gives_ones():
    vals = sample_noise_spectrum(6, 6, 6, seed=0)
    assert np.allclose(vals, 1.0, atol=1e-10)


def test_sample_deterministic_and_sized():
    a = sample_noise_spectrum(40, 10, 15, seed=123)
    b = sample_noise_spectrum(40, 10, 15, seed=123)
    assert np.array_equal(a, b)
    assert a.shape == (10,)
    assert np.all(np.diff(a) <= 0)


def test_sample_reads_counts_and_seed_as_integers():
    base = sample_noise_spectrum(40, 10, 15, seed=123)
    same = sample_noise_spectrum(40.0, np.int64(10), 15.0, seed=np.uint64(123))
    assert np.array_equal(base, same)
    for bad in (dict(n=10.5), dict(r1=2.5), dict(r2="3"), dict(seed=2.5), dict(seed="a")):
        with pytest.raises(InvalidInput, match="must be an integer"):
            sample_noise_spectrum(**{"n": 10, "r1": 3, "r2": 4, "seed": 0, **bad})


def test_sample_rejects_rank_above_dimension():
    with pytest.raises(InvalidInput):
        sample_noise_spectrum(10, 11, 3, seed=0)


def test_sample_max_respects_upper_edge():
    law = noise_law(0.3, 0.4)
    hits = 0
    for seed in range(200):
        vals = sample_noise_spectrum(100, 30, 40, seed=seed)
        hits += vals[0] <= law.lambda_plus + 0.05
    assert hits >= 190


def test_sample_ks_distance_to_law():
    law = noise_law(0.3, 0.4)
    grid = np.linspace(law.lambda_minus, law.lambda_plus, 2001)
    cdf_grid = np.array([noise_cdf(law, x) for x in grid])
    ks = []
    for seed in range(50):
        vals = np.sort(sample_noise_spectrum(100, 30, 40, seed=seed))
        theo = np.interp(vals, grid, cdf_grid, left=0.0, right=1.0)
        m = vals.size
        ks.append(max(np.max(np.arange(1, m + 1) / m - theo),
                      np.max(theo - np.arange(m) / m)))
    assert np.mean(ks) <= 0.12
