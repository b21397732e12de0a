"""Ensemble statistics for scalar observables.

Normal and two-parameter Weibull maximum-likelihood fits, one-sample
Kolmogorov-Smirnov tests (asymptotic and parametric-bootstrap p-values),
central-moment summaries with Pearson-plane coordinates (beta1, beta2) =
(skewness^2, kurtosis), and bootstrap moment clouds.

Conventions, fixed here once: population (divide-by-n) central moments;
non-excess kurtosis (a normal law sits at beta2 = 3); the Weibull family
has CDF 1 - exp(-(x/lambda)^k) with no location shift.

scipy.special is imported where used, so only `analyze` pays its load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, ParameterError

_KS_SERIES_TOL = 1e-12
_WEIBULL_TOL = 1e-10
_WEIBULL_MAX_ITER = 100


def _as_values(sample) -> np.ndarray:
    """The sample as a 1-D float array of finite values."""
    v = np.asarray(sample, dtype=float)
    if v.ndim != 1:
        raise ParameterError("sample values must be one-dimensional")
    if not np.isfinite(v).all():
        raise ParameterError("sample contains non-finite values")
    return v


@dataclass
class FitResult:
    """A fitted distribution: family 'normal' (mu, sigma) or 'weibull' (k, lambda)."""

    family: str
    params: tuple[float, float]
    log_likelihood: float
    converged: bool

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a, b = self.params
        if self.family == "normal":
            from scipy.special import ndtr
            return ndtr((x - a) / b)
        k, lam = a, b
        out = np.zeros_like(x, dtype=float)
        pos = x > 0
        out[pos] = -np.expm1(-((x[pos] / lam) ** k))
        return out

    def quantile(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0) | (p >= 1)):
            raise DomainError("quantile probabilities must lie in (0, 1)")
        a, b = self.params
        if self.family == "normal":
            from scipy.special import ndtri
            return a + b * ndtri(p)
        k, lam = a, b
        return lam * (-np.log1p(-p)) ** (1.0 / k)

    def sample(self, rng: np.random.Generator, size: int | tuple[int, int]) -> np.ndarray:
        a, b = self.params
        if self.family == "normal":
            return rng.normal(a, b, size=size)
        k, lam = a, b
        return lam * rng.weibull(k, size=size)


@dataclass(frozen=True)
class KsOutcome:
    statistic: float
    p_value: float


@dataclass(frozen=True)
class MomentSummary:
    mean: float
    variance: float
    skewness: float
    kurtosis: float  # non-excess (beta2)

    @property
    def beta1(self) -> float:
        return self.skewness**2

    @property
    def beta2(self) -> float:
        return self.kurtosis


# --- fits ----------------------------------------------------------------


def _require_varied(v: np.ndarray, n_min: int = 2) -> None:
    if v.size < n_min:
        raise DegenerateSampleError(f"need at least {n_min} values, got {v.size}")
    if v.max() == v.min():
        raise DegenerateSampleError("all sample values are equal")


def fit_normal(sample) -> FitResult:
    """Normal MLE: mu = mean, sigma = sqrt(population variance)."""
    v = _as_values(sample)
    _require_varied(v)
    mu = float(v.mean())
    sigma = float(v.std())
    if sigma == 0.0:  # spread below float resolution
        raise DegenerateSampleError("sample variance underflows to zero")
    n = v.size
    loglik = -0.5 * n * math.log(2 * math.pi) - n * math.log(sigma) - 0.5 * n
    return FitResult("normal", (mu, sigma), loglik, True)


def _weibull_profile(k: np.ndarray, y: np.ndarray, ln_y: np.ndarray, mean_ln: np.ndarray):
    """Row-wise profile shape equation g(k) and g'(k); y holds samples scaled by their max."""
    yk = y ** k[:, None]
    yk_ln = yk * ln_y
    s0 = yk.sum(axis=1)
    s1 = yk_ln.sum(axis=1)
    s2 = (yk_ln * ln_y).sum(axis=1)
    g = s1 / s0 - 1.0 / k - mean_ln
    # stays a scalar ** (libm pow): numpy's SIMD array ** differs in the last bit
    gprime = s2 / s0 - np.array([r ** 2 for r in s1 / s0]) + 1.0 / (k * k)
    return g, gprime


def _weibull_rows(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-parameter Weibull MLE (k, lambda, converged) of every row of v.

    The profile equation for the shape k is solved by Newton iteration with a
    bisection safeguard, started from the coefficient-of-variation heuristic;
    the scale follows in closed form.  Each row takes its own bracket and
    Newton steps, as if fitted alone; on non-convergence it keeps its last iterate.
    """
    vmax = v.max(axis=1)
    # scale by the max: the profile equation is invariant and y**k stays bounded
    y = v / vmax[:, None]
    ln_y = np.log(y)
    mean_ln = ln_y.mean(axis=1)
    cv = v.std(axis=1) / v.mean(axis=1)
    k = np.ones(len(v))
    # stays a scalar ** (libm pow): numpy's SIMD array ** differs in the last bit
    k[cv > 0] = np.clip(np.array([c ** -1.086 for c in cv[cv > 0]]), 1e-2, 1e3)

    # g(k) is increasing; bracket a sign change for the safeguard by stepping
    # lo down while g(lo) > 0, or hi up while g(hi) < 0
    lo, hi = k.copy(), k.copy()
    g, gp = _weibull_profile(k, y, ln_y, mean_ln)  # also Newton's first step
    down = g > 0
    active = np.flatnonzero(down | (g < 0))
    for _ in range(200):
        if not active.size:
            break
        d = down[active]
        lo[active[d]] /= 1.5
        hi[active[~d]] *= 1.5
        g_end = _weibull_profile(np.where(d, lo[active], hi[active]), y[active],
                                 ln_y[active], mean_ln[active])[0]
        active = active[np.where(d, g_end > 0, g_end < 0)]

    # a step onto the closed bracket is kept: one landing exactly on the root
    # sets lo = k, and bisecting away from there costs ~30 passes
    converged = np.zeros(len(v), dtype=bool)
    active = np.arange(len(v))
    for _ in range(_WEIBULL_MAX_ITER):
        if not active.size:
            break
        k_a, lo_a, hi_a = k[active], lo[active], hi[active]
        hi_a = np.where(g > 0, np.minimum(hi_a, k_a), hi_a)
        lo_a = np.where(g > 0, lo_a, np.maximum(lo_a, k_a))
        k_new = k_a - g / gp
        k_new = np.where((lo_a <= k_new) & (k_new <= hi_a), k_new, 0.5 * (lo_a + hi_a))
        done = np.abs(k_new - k_a) <= _WEIBULL_TOL * np.maximum(1.0, k_a)
        k[active], lo[active], hi[active] = k_new, lo_a, hi_a
        converged[active[done]] = True
        active = active[~done]
        g, gp = _weibull_profile(k[active], y[active], ln_y[active], mean_ln[active])

    # stays a scalar ** (libm pow): numpy's SIMD array ** differs in the last bit
    scale = np.array([m ** (1.0 / kk) for m, kk in zip((y ** k[:, None]).mean(axis=1), k)])
    return k, vmax * scale, converged


def fit_weibull(sample) -> FitResult:
    """Two-parameter Weibull MLE, the one-row call of ``_weibull_rows``; the
    ``converged`` flag is honest: on non-convergence the best iterate is returned."""
    v = _as_values(sample)
    if np.any(v <= 0):
        raise DomainError("weibull fit requires strictly positive values")
    _require_varied(v)
    (k,), (lam,), (converged,) = _weibull_rows(v[None, :])
    n = v.size
    loglik = float(
        n * math.log(k)
        - n * k * math.log(lam)
        + (k - 1) * np.log(v).sum()
        - ((v / lam) ** k).sum()
    )
    return FitResult("weibull", (float(k), float(lam)), loglik, bool(converged))


# --- Kolmogorov-Smirnov --------------------------------------------------


def _ks_distance(cdf: np.ndarray) -> np.ndarray:
    """sup |ECDF - CDF| along the last axis, from the CDF at the sorted values."""
    n = cdf.shape[-1]
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf, axis=-1)
    d_minus = np.max(cdf - (i - 1) / n, axis=-1)
    return np.maximum(np.maximum(d_plus, d_minus), 0.0)


def ks_statistic(sample, fit: FitResult) -> float:
    """sup |ECDF - fitted CDF| evaluated at both sides of every step."""
    v = np.sort(_as_values(sample))
    if v.size == 0:
        raise ParameterError("ks statistic of an empty sample is undefined")
    return float(_ks_distance(fit.cdf(v)))


def kolmogorov_sf(lam: float) -> float:
    """Kolmogorov limiting survival function Q(lam) = 2*sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam <= 0:
        return 1.0
    total = 0.0
    sign = 1.0
    j = 1
    while True:
        term = math.exp(-2.0 * j * j * lam * lam)
        total += sign * term
        if term < _KS_SERIES_TOL or j > 1000:
            break
        sign = -sign
        j += 1
    return float(min(1.0, max(0.0, 2.0 * total)))


def ks_test(sample, fit: FitResult, mode: str = "asymptotic",
            n_resamples: int = 999, seed: int = 0) -> KsOutcome:
    """One-sample KS test of the sample against a fitted law.

    The asymptotic p uses lam = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * D in the
    Kolmogorov series.  Because the fit was estimated from the same data
    that p is biased upward; ``parametric_bootstrap`` re-fits on resamples
    drawn from the fitted law and reports the resampling p-value instead.
    All resamples are drawn, refit and KS-tested at once, row by row of one
    (n_resamples, n) array; the result equals the sequential per-resample
    procedure bit for bit.
    """
    if not fit.converged:
        raise ParameterError("ks_test requires a converged fit")
    v = _as_values(sample)
    n = v.size
    d = ks_statistic(v, fit)

    if mode == "asymptotic":
        lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
        p = kolmogorov_sf(lam)
        return KsOutcome(d, p)
    if mode != "parametric_bootstrap":
        raise ParameterError(f"unknown ks mode {mode!r}")
    if n_resamples < 1:
        raise ParameterError("n_resamples must be >= 1")

    # degenerate resamples have D = inf: conservatively counted as extreme
    exceed = np.count_nonzero(_resample_distances(fit, n, n_resamples, seed) >= d)
    p = (1.0 + exceed) / (n_resamples + 1.0)
    return KsOutcome(d, float(p))


def _resample_distances(fit: FitResult, n: int, n_resamples: int, seed: int) -> np.ndarray:
    """KS distance of each parametric resample, drawn as one (n_resamples, n)
    array, to its own row-wise refit; D = inf where the family's fit rejects
    the resample as degenerate (constant, or a normal spread underflowing to 0)."""
    with np.errstate(over="ignore"):  # an overflowing draw is rejected below
        x = fit.sample(np.random.default_rng(seed), (n_resamples, n))
    if fit.family == "weibull":
        x = np.maximum(x, 1e-300)
    if not np.isfinite(x).all():
        raise ParameterError("sample contains non-finite values")
    ok = x.max(axis=1) != x.min(axis=1)
    if fit.family == "normal":
        from scipy.special import ndtr
        mu, sigma = x.mean(axis=1), x.std(axis=1)
        ok &= sigma != 0.0
        cdf = ndtr((np.sort(x[ok], axis=1) - mu[ok, None]) / sigma[ok, None])
    else:
        k, lam, _ = _weibull_rows(x[ok])
        cdf = -np.expm1(-((np.sort(x[ok], axis=1) / lam[:, None]) ** k[:, None]))
    d = np.full(n_resamples, np.inf)
    d[ok] = _ks_distance(cdf)
    return d


# --- moments and the Pearson plane --------------------------------------


def moment_summary(sample) -> MomentSummary:
    """Population central moments; g1 = m3/m2^1.5, beta2 = m4/m2^2."""
    v = _as_values(sample)
    _require_varied(v)
    (m2,), (g1,), (beta2,) = _moments_rows(v[None, :])
    if m2 == 0.0:  # spread below float resolution
        raise DegenerateSampleError("sample variance underflows to zero")
    return MomentSummary(float(v.mean()), float(m2), float(g1), float(beta2))


def _moments_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (m2, g1, beta2) for a 2-d resample matrix."""
    c = matrix - matrix.mean(axis=1, keepdims=True)
    # products, not c**3 / c**4: numpy's power leaves its fast path on negative bases
    c2 = c * c
    m2 = np.mean(c2, axis=1)
    m3 = np.mean(c2 * c, axis=1)
    m4 = np.mean(c2 * c2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = m3 / m2**1.5
        beta2 = m4 / m2**2
    return m2, g1, beta2


def weibull_locus(k: float) -> tuple[float, float]:
    """(beta1, beta2) of Weibull(k, 1) from raw gamma moments; scale-free."""
    if k <= 0:
        raise DomainError("shape k must be > 0")
    from scipy.special import gammaln
    # m_r = Gamma(1 + r/k), via gammaln for large-k stability
    m = [math.exp(gammaln(1.0 + r / k)) for r in range(1, 5)]
    m1, m2, m3, m4 = m
    var = m2 - m1**2
    mu3 = m3 - 3 * m1 * var - m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    g1 = mu3 / var**1.5
    beta2 = mu4 / var**2
    return float(g1**2), float(beta2)


def bootstrap_cloud(sample, n_resamples: int, seed: int = 0) -> np.ndarray:
    """With-replacement resamples mapped to (beta1, beta2) points: an
    (n_resamples, 2) array.  Degenerate resamples (zero variance) are redrawn.
    """
    v = _as_values(sample)
    _require_varied(v)
    if n_resamples < 1:
        raise ParameterError("n_resamples must be >= 1")
    rng = np.random.default_rng(seed)
    n = v.size
    idx = rng.integers(0, n, size=(n_resamples, n))
    m2, g1, beta2 = _moments_rows(v[idx])

    bad = np.flatnonzero(m2 == 0)
    guard = 0
    while bad.size:
        idx_new = rng.integers(0, n, size=(bad.size, n))
        m2b, g1b, b2b = _moments_rows(v[idx_new])
        g1[bad], beta2[bad], m2[bad] = g1b, b2b, m2b
        bad = bad[m2b == 0]
        guard += 1
        if guard > 1000:
            raise DegenerateSampleError("cannot draw non-degenerate resamples")
    return np.column_stack([g1**2, beta2])


def qq_points(sample, fit: FitResult) -> np.ndarray:
    """(theoretical, empirical) quantile pairs at probabilities (i - 0.5)/n."""
    if not fit.converged:
        raise ParameterError("qq_points requires a converged fit")
    v = np.sort(_as_values(sample))
    n = v.size
    if n < 2:
        raise DegenerateSampleError("need at least two values for a QQ plot")
    p = (np.arange(1, n + 1) - 0.5) / n
    return np.column_stack([fit.quantile(p), v])
