"""Fits, KS machinery, moment summaries, and bootstrap clouds."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st_h
from oracles import weibull_log_likelihood

from gridsweep.errors import DegenerateSampleError, DomainError, ParameterError
from gridsweep.stats import (
    FitResult,
    bootstrap_cloud,
    fit_normal,
    fit_weibull,
    kolmogorov_sf,
    ks_statistic,
    ks_test,
    moment_summary,
    qq_points,
    weibull_locus,
)


def std_normal_fit():
    return FitResult("normal", (0.0, 1.0), 0.0, True)


def test_sample_rejects_non_finite_and_2d():
    for check in (fit_normal, fit_weibull, moment_summary,
                  lambda v: ks_statistic(v, std_normal_fit()),
                  lambda v: bootstrap_cloud(v, 10),
                  lambda v: qq_points(v, std_normal_fit())):
        with pytest.raises(ParameterError):
            check(np.array([1.0, 2.0, np.nan]))
        with pytest.raises(ParameterError):
            check(np.arange(1.0, 5.0).reshape(2, 2))


# --- normal fit ----------------------------------------------------------


def test_normal_fit_two_point_closed_form():
    fit = fit_normal([0.0, 2.0])
    assert fit.params == (1.0, 1.0)
    # closed-form log-likelihood at the MLE: -n/2 log(2 pi) - n log sigma - n/2
    assert fit.log_likelihood == pytest.approx(-math.log(2 * math.pi) - 1.0)
    assert fit.converged


def test_degenerate_samples_are_rejected():
    with pytest.raises(DegenerateSampleError):
        fit_normal([5.0, 5.0, 5.0])
    with pytest.raises(DegenerateSampleError):
        fit_weibull([2.0])


def test_normal_cdf_and_quantile_are_inverse():
    fit = fit_normal(np.random.default_rng(0).normal(3.0, 2.0, 1000))
    p = np.array([0.01, 0.25, 0.5, 0.9])
    assert fit.cdf(fit.quantile(p)) == pytest.approx(p, abs=1e-12)
    with pytest.raises(DomainError):
        fit.quantile([0.0])


# --- weibull fit ---------------------------------------------------------


@pytest.mark.parametrize("k_true", [1.0, 2.0, 4.0])
def test_weibull_shape_recovery_within_five_percent(k_true):
    rng = np.random.default_rng(int(k_true * 10))
    draws = 2.0 * rng.weibull(k_true, size=10_000)
    fit = fit_weibull(draws)
    k, lam = fit.params
    assert fit.converged
    assert abs(k - k_true) / k_true < 0.05
    assert abs(lam - 2.0) / 2.0 < 0.05


def test_weibull_rejects_nonpositive_values():
    with pytest.raises(DomainError):
        fit_weibull([1.0, 0.0, 2.0])
    with pytest.raises(DomainError):
        fit_weibull([1.0, -3.0])


def test_weibull_fit_maximizes_the_likelihood():
    rng = np.random.default_rng(5)
    draws = 1.5 * rng.weibull(2.5, size=2000)
    fit = fit_weibull(draws)
    k, lam = fit.params
    assert fit.log_likelihood == pytest.approx(
        weibull_log_likelihood(draws, k, lam), rel=1e-12)
    for dk, dlam in [(1.05, 1.0), (0.95, 1.0), (1.0, 1.05), (1.0, 0.95)]:
        assert weibull_log_likelihood(draws, k * dk, lam * dlam) < fit.log_likelihood


def test_weibull_scale_equivariance():
    rng = np.random.default_rng(9)
    draws = rng.weibull(1.7, size=4000)
    k1, lam1 = fit_weibull(draws).params
    k2, lam2 = fit_weibull(7.0 * draws).params
    assert k2 == pytest.approx(k1, rel=1e-8)
    assert lam2 == pytest.approx(7.0 * lam1, rel=1e-8)


def test_weibull_quantile_median_is_log_two_scaled():
    fit = FitResult("weibull", (1.0, 1.0), 0.0, True)
    assert fit.quantile([0.5]) == pytest.approx([math.log(2.0)])
    assert fit.cdf(np.array([-1.0, 0.0])) == pytest.approx([0.0, 0.0])


# --- KS ------------------------------------------------------------------


def test_single_point_ks_statistic_closed_form():
    # one observation at the fitted median: both step sides give D = 1/2
    assert ks_statistic([0.0], std_normal_fit()) == pytest.approx(0.5)


def grid_scan_d(values, fit, n_grid=1_000_000):
    """Independent sup-scan of |ECDF - CDF| on a dense grid plus both step sides."""
    v = np.sort(np.asarray(values, dtype=float))
    grid = np.linspace(v[0] - 1.0, v[-1] + 1.0, n_grid)
    eps = 1e-9
    xs = np.concatenate([grid, v, v - eps])
    ecdf = np.searchsorted(v, xs, side="right") / v.size
    return float(np.max(np.abs(ecdf - fit.cdf(xs))))


def test_ks_statistic_matches_grid_scan():
    rng = np.random.default_rng(3)
    values = rng.normal(0.3, 1.4, size=200)
    fit = fit_normal(values)
    assert abs(ks_statistic(values, fit) - grid_scan_d(values, fit)) < 1e-9


def test_kolmogorov_sf_matches_scipy():
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0
    lams = np.linspace(0.3, 2.5, 23)
    for lam in lams:
        assert kolmogorov_sf(lam) == pytest.approx(
            float(scipy.special.kolmogorov(lam)), abs=1e-10)
    vals = [kolmogorov_sf(x) for x in lams]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert kolmogorov_sf(10.0) < 1e-80


def test_ks_test_asymptotic_accepts_its_own_family():
    rng = np.random.default_rng(12)
    values = rng.normal(0.0, 1.0, size=500)
    out = ks_test(values, fit_normal(values))
    assert out.p_value > 0.05  # fitted-parameter bias makes this conservative


@pytest.mark.parametrize("n_resamples", [0, -1, -5])
def test_ks_bootstrap_rejects_non_positive_n_resamples(n_resamples):
    values = np.random.default_rng(4).normal(0.0, 1.0, size=50)
    with pytest.raises(ParameterError, match="n_resamples"):
        ks_test(values, fit_normal(values), mode="parametric_bootstrap",
                n_resamples=n_resamples)


def test_ks_bootstrap_rejects_wrong_family():
    rng = np.random.default_rng(4)
    values = rng.exponential(1.0, size=500)
    out = ks_test(values, fit_normal(values), mode="parametric_bootstrap",
                  n_resamples=199, seed=1)
    assert out.p_value < 0.05
    assert out.p_value >= 1.0 / 200.0


def test_ks_bootstrap_accepts_right_family_and_is_deterministic():
    rng = np.random.default_rng(8)
    values = 2.0 * rng.weibull(2.0, size=300)
    fit = fit_weibull(values)
    a = ks_test(values, fit, mode="parametric_bootstrap", n_resamples=199, seed=3)
    b = ks_test(values, fit, mode="parametric_bootstrap", n_resamples=199, seed=3)
    assert a == b
    assert a.p_value > 0.05


def test_ks_test_input_validation():
    fit = std_normal_fit()
    with pytest.raises(ParameterError):
        ks_test([0.1, 0.2], fit, mode="wat")
    bad = FitResult("normal", (0.0, 1.0), 0.0, False)
    with pytest.raises(ParameterError):
        ks_test([0.1, 0.2], bad)


# --- moments -------------------------------------------------------------


def test_two_point_moments_sit_on_the_boundary():
    m = moment_summary([-1.0, 1.0])
    assert (m.mean, m.variance, m.skewness, m.kurtosis) == (0.0, 1.0, 0.0, 1.0)
    assert m.beta2 == m.beta1 + 1.0  # Pearson inequality is tight here


def test_normal_sample_sits_near_0_3():
    values = np.random.default_rng(2).normal(size=100_000)
    m = moment_summary(values)
    assert math.hypot(m.beta1 - 0.0, m.beta2 - 3.0) < 0.15


def test_exponential_sample_moments():
    values = np.random.default_rng(6).exponential(size=1_000_000)
    m = moment_summary(values)
    assert m.skewness == pytest.approx(2.0, abs=0.05)
    assert m.kurtosis == pytest.approx(9.0, abs=0.3)


@given(st_h.lists(st_h.floats(-100, 100), min_size=3, max_size=40))
def test_pearson_inequality_always_holds(values):
    v = np.asarray(values)
    # skip spreads near float resolution where the centered moments are noise
    if v.std() < 1e-3:
        return
    m = moment_summary(v)
    assert m.beta2 >= m.beta1 + 1.0 - 1e-9


def test_moments_are_shift_invariant_and_negation_flips_skew():
    rng = np.random.default_rng(10)
    v = rng.gamma(2.0, size=500)
    base = moment_summary(v)
    shifted = moment_summary(v + 42.0)
    assert shifted.skewness == pytest.approx(base.skewness, rel=1e-9)
    assert shifted.kurtosis == pytest.approx(base.kurtosis, rel=1e-9)
    flipped = moment_summary(-v)
    assert flipped.skewness == pytest.approx(-base.skewness, rel=1e-9)
    assert flipped.beta1 == pytest.approx(base.beta1, rel=1e-9)


# --- weibull locus -------------------------------------------------------


def test_weibull_locus_exponential_corner():
    b1, b2 = weibull_locus(1.0)
    assert b1 == pytest.approx(4.0, rel=1e-12)
    assert b2 == pytest.approx(9.0, rel=1e-12)


def test_weibull_locus_matches_monte_carlo():
    rng = np.random.default_rng(14)
    m = moment_summary(rng.weibull(2.0, size=1_000_000))
    b1, b2 = weibull_locus(2.0)
    assert m.beta1 == pytest.approx(b1, rel=0.02, abs=0.01)
    assert m.beta2 == pytest.approx(b2, rel=0.02)


def test_weibull_locus_respects_pearson_inequality():
    for k in np.geomspace(0.2, 50.0, 40):
        b1, b2 = weibull_locus(float(k))
        assert b2 >= b1 + 1.0
    with pytest.raises(DomainError):
        weibull_locus(0.0)


# --- bootstrap cloud -----------------------------------------------------


def test_bootstrap_cloud_is_deterministic_and_in_bounds():
    rng = np.random.default_rng(1)
    v = rng.weibull(2.0, size=200)
    a = bootstrap_cloud(v, 500, seed=7)
    b = bootstrap_cloud(v, 500, seed=7)
    assert np.array_equal(a.points, b.points)
    assert a.points.shape == (500, 2)
    assert np.isfinite(a.points).all()
    assert (a.points[:, 1] >= a.points[:, 0] + 1.0 - 1e-9).all()
    c = bootstrap_cloud(v, 500, seed=8)
    assert not np.array_equal(a.points, c.points)


def test_bootstrap_cloud_centers_on_the_sample_moments():
    rng = np.random.default_rng(13)
    v = rng.normal(size=5000)
    cloud = bootstrap_cloud(v, 400, seed=0)
    m = moment_summary(v)
    center = cloud.points.mean(axis=0)
    assert abs(center[0] - m.beta1) < 0.05
    assert abs(center[1] - m.beta2) < 0.25


def test_bootstrap_redraws_degenerate_resamples():
    cloud = bootstrap_cloud([0.0, 1.0], 2000, seed=2)
    assert cloud.n_redrawn > 0  # a 2-point sample collapses often
    assert np.isfinite(cloud.points).all()
    with pytest.raises(ParameterError):
        bootstrap_cloud([0.0, 1.0], 0)


# --- qq ------------------------------------------------------------------


def test_qq_points_shape_and_ordering():
    rng = np.random.default_rng(3)
    v = rng.normal(2.0, 0.5, size=101)
    pts = qq_points(v, fit_normal(v))
    assert pts.shape == (101, 2)
    assert np.array_equal(pts[:, 1], np.sort(v))
    assert (np.diff(pts[:, 0]) > 0).all()
    # a near-perfect fit keeps the pairs close to the diagonal
    assert np.abs(pts[:, 0] - pts[:, 1]).max() < 0.5


def test_qq_points_validation():
    with pytest.raises(ParameterError):
        qq_points([0.1, 0.2], FitResult("normal", (0.0, 1.0), 0.0, False))
    with pytest.raises(DegenerateSampleError):
        qq_points([0.1], std_normal_fit())
