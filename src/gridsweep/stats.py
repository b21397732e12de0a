"""Ensemble statistics for scalar observables.

Normal and two-parameter Weibull maximum-likelihood fits, one-sample
Kolmogorov-Smirnov tests (asymptotic and parametric-bootstrap p-values),
central-moment summaries with Pearson-plane coordinates (beta1, beta2) =
(skewness^2, kurtosis), and bootstrap moment clouds.

Conventions, fixed here once: population (divide-by-n) central moments;
non-excess kurtosis (a normal law sits at beta2 = 3); the Weibull family
has CDF 1 - exp(-(x/lambda)^k) with no location shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr, ndtri

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
            return a + b * ndtri(p)
        k, lam = a, b
        return lam * (-np.log1p(-p)) ** (1.0 / k)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
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


@dataclass
class BootstrapCloud:
    points: np.ndarray  # (n_resamples, 2) columns beta1, beta2
    n_redrawn: int = 0


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


def _weibull_profile(k: float, y: np.ndarray, ln_y: np.ndarray, mean_ln: float):
    """Profile shape equation g(k) and g'(k); y is the sample scaled by its max."""
    yk = y**k
    yk_ln = yk * ln_y
    s0 = yk.sum()
    s1 = yk_ln.sum()
    s2 = (yk_ln * ln_y).sum()
    g = s1 / s0 - 1.0 / k - mean_ln
    gprime = s2 / s0 - (s1 / s0) ** 2 + 1.0 / (k * k)
    return g, gprime


def fit_weibull(sample) -> FitResult:
    """Two-parameter Weibull MLE.

    The profile equation for the shape k is solved by Newton iteration with
    a bisection safeguard, started from the coefficient-of-variation
    heuristic; the scale follows in closed form.  The ``converged`` flag is
    honest: on non-convergence the best iterate is returned.
    """
    v = _as_values(sample)
    if np.any(v <= 0):
        raise DomainError("weibull fit requires strictly positive values")
    _require_varied(v)

    # scale by the max: the profile equation is invariant and x**k stays bounded
    y = v / v.max()
    ln_y = np.log(y)
    mean_ln = float(ln_y.mean())

    cv = v.std() / v.mean()
    k = float(np.clip(cv**-1.086, 1e-2, 1e3)) if cv > 0 else 1.0

    # g(k) is increasing; bracket a sign change for the safeguard
    lo, hi = k, k
    glo, _ = _weibull_profile(lo, y, ln_y, mean_ln)
    ghi = glo
    for _ in range(200):
        if glo > 0:
            lo /= 1.5
            glo, _ = _weibull_profile(lo, y, ln_y, mean_ln)
        elif ghi < 0:
            hi *= 1.5
            ghi, _ = _weibull_profile(hi, y, ln_y, mean_ln)
        else:
            break
    converged = False
    for _ in range(_WEIBULL_MAX_ITER):
        g, gp = _weibull_profile(k, y, ln_y, mean_ln)
        if g > 0:
            hi = min(hi, k)
        else:
            lo = max(lo, k)
        step = g / gp
        k_new = k - step
        if not (lo < k_new < hi):
            k_new = 0.5 * (lo + hi)
        if abs(k_new - k) <= _WEIBULL_TOL * max(1.0, k):
            k = k_new
            converged = True
            break
        k = k_new

    lam = float(v.max() * (np.mean(y**k)) ** (1.0 / k))
    n = v.size
    loglik = float(
        n * math.log(k)
        - n * k * math.log(lam)
        + (k - 1) * np.log(v).sum()
        - ((v / lam) ** k).sum()
    )
    return FitResult("weibull", (float(k), lam), loglik, converged)


# --- Kolmogorov-Smirnov --------------------------------------------------


def ks_statistic(sample, fit: FitResult) -> float:
    """sup |ECDF - fitted CDF| evaluated at both sides of every step."""
    v = np.sort(_as_values(sample))
    if v.size == 0:
        raise ParameterError("ks statistic of an empty sample is undefined")
    n = v.size
    cdf = fit.cdf(v)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus, 0.0))


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
    """
    if not fit.converged:
        raise ParameterError("ks_test requires a converged fit")
    v = _as_values(sample)
    if v.size == 0:
        raise ParameterError("ks test of an empty sample is undefined")
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

    fitter = fit_normal if fit.family == "normal" else fit_weibull
    rng = np.random.default_rng(seed)
    exceed = 0
    for _ in range(n_resamples):
        resample = fit.sample(rng, n)
        if fit.family == "weibull":
            resample = np.maximum(resample, 1e-300)
        try:
            refit = fitter(resample)
        except DegenerateSampleError:
            exceed += 1  # conservative: count pathological resamples as extreme
            continue
        if ks_statistic(resample, refit) >= d:
            exceed += 1
    p = (1.0 + exceed) / (n_resamples + 1.0)
    return KsOutcome(d, float(p))


# --- moments and the Pearson plane --------------------------------------


def moment_summary(sample) -> MomentSummary:
    """Population central moments; g1 = m3/m2^1.5, beta2 = m4/m2^2."""
    v = _as_values(sample)
    _require_varied(v)
    c = v - v.mean()
    m2 = float(np.mean(c**2))
    if m2 == 0.0:  # spread below float resolution
        raise DegenerateSampleError("sample variance underflows to zero")
    m3 = float(np.mean(c**3))
    m4 = float(np.mean(c**4))
    g1 = m3 / m2**1.5
    beta2 = m4 / m2**2
    return MomentSummary(float(v.mean()), m2, g1, beta2)


def _moments_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise (m2, g1, beta2) for a 2-d resample matrix."""
    c = matrix - matrix.mean(axis=1, keepdims=True)
    m2 = np.mean(c**2, axis=1)
    m3 = np.mean(c**3, axis=1)
    m4 = np.mean(c**4, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = m3 / m2**1.5
        beta2 = m4 / m2**2
    return m2, g1, beta2


def weibull_locus(k: float) -> tuple[float, float]:
    """(beta1, beta2) of Weibull(k, 1) from raw gamma moments; scale-free."""
    if k <= 0:
        raise DomainError("shape k must be > 0")
    # m_r = Gamma(1 + r/k), via gammaln for large-k stability
    m = [math.exp(gammaln(1.0 + r / k)) for r in range(1, 5)]
    m1, m2, m3, m4 = m
    var = m2 - m1**2
    mu3 = m3 - 3 * m1 * var - m1**3
    mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
    g1 = mu3 / var**1.5
    beta2 = mu4 / var**2
    return float(g1**2), float(beta2)


def bootstrap_cloud(sample, n_resamples: int, seed: int = 0) -> BootstrapCloud:
    """With-replacement resamples mapped to (beta1, beta2) points.

    Degenerate resamples (zero variance) are redrawn and counted.
    """
    v = _as_values(sample)
    _require_varied(v)
    if n_resamples < 1:
        raise ParameterError("n_resamples must be >= 1")
    rng = np.random.default_rng(seed)
    n = v.size
    idx = rng.integers(0, n, size=(n_resamples, n))
    m2, g1, beta2 = _moments_rows(v[idx])

    n_redrawn = 0
    bad = np.flatnonzero(m2 == 0)
    guard = 0
    while bad.size:
        n_redrawn += bad.size
        idx_new = rng.integers(0, n, size=(bad.size, n))
        m2b, g1b, b2b = _moments_rows(v[idx_new])
        g1[bad], beta2[bad], m2[bad] = g1b, b2b, m2b
        bad = bad[m2b == 0]
        guard += 1
        if guard > 1000:
            raise DegenerateSampleError("cannot draw non-degenerate resamples")
    points = np.column_stack([g1**2, beta2])
    return BootstrapCloud(points=points, n_redrawn=n_redrawn)


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
