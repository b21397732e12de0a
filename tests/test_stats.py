"""Fits, KS machinery, the normal CDF and its inverse, moment summaries, and
bootstrap clouds."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st_h
from oracles import (
    oracle_fit_weibull,
    oracle_ks_bootstrap,
    oracle_pearson_point,
    weibull_log_likelihood,
)
from scipy.special import ndtr, ndtri

from gridsweep import stats
from gridsweep.errors import DegenerateSampleError, DomainError, ParameterError
from gridsweep.stats import (
    FitResult,
    _moments_rows,
    _ndtr,
    _ndtri,
    _resample_distances,
    _weibull_rows,
    bootstrap_cloud,
    fit_normal,
    fit_weibull,
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


def test_ks_test_has_only_the_bootstrap_p_value():
    # the asymptotic Kolmogorov p is invalid for a fit to the same sample
    values = np.random.default_rng(12).normal(0.0, 1.0, size=100)
    fit = fit_normal(values)
    with pytest.raises(ParameterError, match="unknown ks mode 'asymptotic'"):
        ks_test(values, fit, mode="asymptotic")
    assert ks_test(values, fit, n_resamples=99) == ks_test(
        values, fit, mode="parametric_bootstrap", n_resamples=99)


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


def test_ks_bootstrap_counts_degenerate_resamples_as_extreme():
    # every resample is constant ((1, 1e-300)) or its spread underflows ((0, 1e-170))
    for params in [(1.0, 1e-300), (0.0, 1e-170)]:
        out = ks_test([0.5, 1.5, 2.0], FitResult("normal", params, 0.0, True),
                      mode="parametric_bootstrap", n_resamples=99, seed=0)
        assert out.p_value == 1.0


def test_ks_bootstrap_rejects_non_finite_resamples():
    fit = FitResult("weibull", (0.01, 1e300), 0.0, True)
    with pytest.raises(ParameterError, match="non-finite"):
        ks_test([1.0, 2.0, 3.0], fit, mode="parametric_bootstrap", n_resamples=50, seed=0)


def campaign_cell(strain_index, column, seed=0, n_jobs=100, n_free=192):
    """One observable at one checkpoint of the synthetic 100-job ensemble the
    benchmark's campaign workload writes (columns: c_hcp, c_unk, sigma_top)."""
    rng = np.random.default_rng(seed)
    cells = []
    for _ in range(n_jobs):
        yield_strain, stiffness = rng.normal(0.09, 0.01), rng.normal(14.0, 0.7)
        for e in [i * 0.01 for i in range(21)]:
            plastic = max(0.0, e - yield_strain)
            unk = 1 + int(rng.binomial(n_free - 2, min(0.9, 0.02 + 2.0 * plastic)))
            hcp = 1 + int(rng.binomial(n_free - 1 - unk, min(0.9, 0.005 + 1.5 * plastic)))
            sigma = stiffness * min(e, yield_strain) - 5.0 * plastic + rng.normal(0.0, 0.02)
            rng.normal(0.0, 0.5)  # the energy column
            cells.append((hcp / n_free, unk / n_free, sigma))
    return np.array(cells).reshape(n_jobs, 21, 3)[:, strain_index, column]


@pytest.mark.parametrize("strain_index, column, fitter, p_repr", [
    (15, 2, fit_weibull, "0.729"),  # sigma_top at strain 0.15
    (20, 1, fit_normal, "0.354"),  # c_unk at strain 0.20
])
def test_ks_bootstrap_pinned_campaign_p_values(strain_index, column, fitter, p_repr):
    # recorded with the resample-by-resample loop; any drift in a refit shows here
    v = campaign_cell(strain_index, column)
    out = ks_test(v, fitter(v), mode="parametric_bootstrap", n_resamples=999, seed=0)
    assert repr(out.p_value) == p_repr


def assert_bootstrap_matches_the_loop(v, fit, n_resamples, seed):
    """Per resample: the same degenerate rows, D and Weibull (k, lambda,
    converged) as the resample-by-resample oracle; and the same p."""
    refits, p = oracle_ks_bootstrap(v, fit, n_resamples, seed)
    d = _resample_distances(fit, v.size, n_resamples, seed)
    kept = [refit for refit in refits if refit is not None]
    assert [refit is None for refit in refits] == list(np.isinf(d))
    assert np.array_equal([refit[2] for refit in kept], d[np.isfinite(d)], equal_nan=True)
    if fit.family == "weibull":
        x = np.maximum(fit.sample(np.random.default_rng(seed), (n_resamples, v.size)), 1e-300)
        k, lam, converged = _weibull_rows(x[np.isfinite(d)])
        assert [(params, conv) for params, conv, _ in kept] == list(
            zip(zip(k, lam), converged))
    out = ks_test(v, fit, mode="parametric_bootstrap", n_resamples=n_resamples, seed=seed)
    assert out.p_value == p
    return refits


@settings(max_examples=40, deadline=None)
@given(family=st_h.sampled_from(["normal", "weibull"]), n=st_h.integers(2, 600),
       log_k=st_h.floats(-3.0, 5.5), seed=st_h.integers(0, 2**32 - 1))
def test_batched_bootstrap_equals_the_per_resample_loop(family, n, log_k, seed):
    rng = np.random.default_rng(seed)
    if family == "weibull":  # k from 0.05 to 245
        v = np.maximum(2.0 * rng.weibull(math.exp(log_k), n), 1e-300)
    else:
        v = rng.normal(log_k, 1.0 + abs(log_k), n)
    assume(v.max() > v.min())
    if family == "weibull":
        fit, ref = fit_weibull(v), oracle_fit_weibull(v)
        assert (fit.params, fit.converged, fit.log_likelihood) == (
            ref.params, ref.converged, ref.log_likelihood)
    else:
        fit = fit_normal(v)
    assume(fit.converged)
    assert_bootstrap_matches_the_loop(v, fit, 25, seed)


@pytest.mark.parametrize("params", [(0.05, 1e-290), (1.0, 1e-310)])
def test_batched_bootstrap_degenerate_weibull_resamples_match_the_loop(params):
    # many (the first law) or all (the second) resamples clamp to 1e-300 throughout
    fit = FitResult("weibull", params, 0.0, True)
    refits = assert_bootstrap_matches_the_loop(np.array([1e-300, 2e-300]), fit, 200, 3)
    assert None in refits


@pytest.mark.parametrize("seed, k, n", [(204, 0.7, 150), (339, 4.0, 60), (1364, 1.5, 100)])
def test_weibull_rows_equal_one_sample_fits(seed, k, n):
    # each batch holds a row whose k or lambda moves by one ulp if g'(k)'s
    # (s1 / s0) ** 2 is taken as an array power instead of libm pow
    v = np.random.default_rng(seed).weibull(k, size=(50, n))
    rows = list(zip(*_weibull_rows(v)))
    fits = [fit_weibull(row) for row in v]
    refs = [oracle_fit_weibull(row) for row in v]
    assert rows == [(*r.params, r.converged) for r in refs]
    assert [(f.params, f.log_likelihood) for f in fits] == [
        (r.params, r.log_likelihood) for r in refs]


def test_weibull_rows_keep_the_last_iterate_when_not_converged(monkeypatch):
    monkeypatch.setattr(stats, "_WEIBULL_MAX_ITER", 3)
    rng = np.random.default_rng(21)
    v = rng.weibull(1.5, size=(40, 60)) * rng.uniform(0.5, 2.0, size=(40, 1))
    v[::3] = rng.weibull(30.0, size=(14, 60))  # rows that need few Newton steps
    k, lam, converged = _weibull_rows(v)
    refs = [oracle_fit_weibull(row, max_iter=3) for row in v]
    assert list(zip(k, lam, converged)) == [(*r.params, r.converged) for r in refs]
    assert 0 < converged.sum() < len(v)


def test_weibull_solver_stops_at_a_root_on_its_bracket(monkeypatch):
    # rows whose Newton step lands exactly on the root set lo = k; a step onto
    # that bracket end must be kept, not bisected away from for ~30 passes
    v = campaign_cell(10, 1)
    fit = fit_weibull(v)
    profile, calls = stats._weibull_profile, []
    rows, per_rows = stats._weibull_rows, []

    def counted(*args):
        calls.append(args)
        return profile(*args)

    def counted_rows(x):
        before = len(calls)
        out = rows(x)
        per_rows.append(len(calls) - before)
        return out

    monkeypatch.setattr(stats, "_weibull_profile", counted)
    monkeypatch.setattr(stats, "_weibull_rows", counted_rows)
    ks_test(v, fit, "parametric_bootstrap", n_resamples=999, seed=0)
    assert len(per_rows) == 4 and max(per_rows) <= 10  # blocks of 327 rows

    # a seeded batch: the open-bracket rule took 18,271 row evaluations
    rng = np.random.default_rng(17)
    x = rng.weibull(1.5, size=(2000, 100)) * rng.uniform(0.5, 2.0, size=(2000, 1))
    calls.clear()
    assert stats._weibull_rows(x)[2].all()
    assert sum(len(k) for k, *_ in calls) <= 0.6 * 18271


@pytest.mark.parametrize("fit, n", [
    (FitResult("normal", (2.0, 0.5), 0.0, True), 40),
    (FitResult("weibull", (1.5, 2.0), 0.0, True), 40),
    (FitResult("weibull", (0.05, 1e-290), 0.0, True), 3),  # some resamples clamp to 1e-300
])
def test_resample_blocks_equal_one_block(monkeypatch, fit, n):
    one = _resample_distances(fit, n, 200, 5)  # 2^15 // n rows: one block
    monkeypatch.setattr(stats, "_RESAMPLE_BLOCK", 7 * n)  # 28 blocks of 7 rows, then 4
    blocks = _resample_distances(fit, n, 200, 5)
    assert np.array_equal(blocks.view(np.int64), one.view(np.int64))
    if fit.params[1] < 1e-200:
        degenerate = np.isinf(one).reshape(-1)[:196].reshape(28, 7).any(axis=1)
        assert 1 < degenerate.sum() < 28


def test_weibull_bootstrap_at_n_1000_stays_in_a_few_megabytes():
    # one (999, 1000) array with its refit's temporaries peaked at 72 MB traced
    v = np.random.default_rng(8).weibull(2.0, 1000)
    fit = fit_weibull(v)
    tracemalloc.start()
    try:
        ks_test(v, fit, n_resamples=999, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_ks_test_input_validation():
    fit = std_normal_fit()
    with pytest.raises(ParameterError):
        ks_test([0.1, 0.2], fit, mode="wat")
    with pytest.raises(ParameterError):
        ks_test([], fit)
    bad = FitResult("normal", (0.0, 1.0), 0.0, False)
    with pytest.raises(ParameterError):
        ks_test([0.1, 0.2], bad)


# --- the normal CDF and its inverse: bit for bit scipy.special ---------


def assert_same_bits(ours, theirs):
    ours, theirs = np.asarray(ours, dtype=float), np.asarray(theirs, dtype=float)
    assert ours.shape == theirs.shape
    assert np.count_nonzero(ours.view(np.int64) != theirs.view(np.int64)) == 0


def test_ndtr_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(999, 100))
    standardized = (np.sort(x, axis=1) - x.mean(axis=1)[:, None]) / x.std(axis=1)[:, None]
    # each side of the erf/erfc switch at |a| = sqrt2, the tables' switch at
    # 8 sqrt2 and erfc's underflow near 37.68, where a^2/2 passes MAXLOG
    switches = [s * t for s in (math.sqrt(2), 8 * math.sqrt(2), 37.67, 37.68) for t in (1, -1)]
    edges = np.array([0.0, -0.0, 1e300, -1e300, 1e-300, *switches,
                      *np.nextafter(switches, 0.0), *np.nextafter(switches, np.inf)])
    for a in (standardized, rng.normal(0.0, 3.0, 100_000), rng.uniform(-60.0, 60.0, 100_000),
              edges):
        assert_same_bits(_ndtr(a), ndtr(a))


def test_ndtri_equals_scipy_bit_for_bit():
    rng = np.random.default_rng(29)
    exp_m2 = 0.13533528323661269189  # the central table's bounds: exp(-2), 1 - exp(-2)
    bounds = [exp_m2, 1.0 - exp_m2, 0.5]
    grids = [(np.arange(1, n + 1) - 0.5) / n for n in (2, 3, 100, 583, 1000)]
    for p in (rng.uniform(size=100_000), 10.0 ** rng.uniform(-300.0, 0.0, 100_000),
              1.0 - 10.0 ** rng.uniform(-16.0, -0.1, 100_000),
              np.array([*bounds, *np.nextafter(bounds, 0.0), *np.nextafter(bounds, 1.0),
                        5e-324, 1e-300, 1e-14, np.nextafter(1.0, 0.0)]), *grids):
        assert_same_bits(_ndtri(p), ndtri(p))


def test_ndtr_of_infinities_is_exact_and_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same_bits(_ndtr(np.array([-np.inf, np.inf, -1e300, 1e300])), [0.0, 1.0, 0.0, 1.0])
        assert np.isnan(_ndtr(np.nan))
        assert_same_bits(std_normal_fit().cdf(np.inf), 1.0)


# --- moments -------------------------------------------------------------


def test_two_point_moments_sit_on_the_boundary():
    m = moment_summary([-1.0, 1.0])
    assert (m.mean, m.variance, m.skewness, m.kurtosis) == (0.0, 1.0, 0.0, 1.0)
    assert m.beta2 == m.beta1 + 1.0  # Pearson inequality is tight here


def test_moments_of_an_underflowing_variance_are_degenerate():
    # two distinct values whose squared deviations underflow to zero
    with pytest.raises(DegenerateSampleError, match="variance underflows"):
        moment_summary([0.0, 5e-324])


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


def test_moments_match_exact_rational_moments():
    x = np.random.default_rng(7).exponential(size=(20, 30)) + 3.0
    _, g1, beta2 = _moments_rows(x)
    for row, b1_row, b2_row in zip(x, g1**2, beta2):
        b1, b2 = oracle_pearson_point(row)
        summary = moment_summary(row)
        for value in (b1_row, summary.beta1):
            assert abs(value - b1) <= 1e-12 * b1
        for value in (b2_row, summary.beta2):
            assert abs(value - b2) <= 1e-12 * b2


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
    assert np.array_equal(a, b)
    assert a.shape == (500, 2)
    assert np.isfinite(a).all()
    assert (a[:, 1] >= a[:, 0] + 1.0 - 1e-9).all()
    c = bootstrap_cloud(v, 500, seed=8)
    assert not np.array_equal(a, c)


def test_bootstrap_cloud_centers_on_the_sample_moments():
    rng = np.random.default_rng(13)
    v = rng.normal(size=5000)
    cloud = bootstrap_cloud(v, 400, seed=0)
    m = moment_summary(v)
    center = cloud.mean(axis=0)
    assert abs(center[0] - m.beta1) < 0.05
    assert abs(center[1] - m.beta2) < 0.25


def test_bootstrap_redraws_degenerate_resamples():
    # a 2-point sample collapses often; a kept collapse would give nan points
    cloud = bootstrap_cloud([0.0, 1.0], 2000, seed=2)
    assert np.isfinite(cloud).all()
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
