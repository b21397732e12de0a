"""Ensemble statistics for scalar observables.

Normal and two-parameter Weibull maximum-likelihood fits, one-sample
Kolmogorov-Smirnov tests with parametric-bootstrap p-values, central-moment
summaries with Pearson-plane coordinates (beta1, beta2) = (skewness^2,
kurtosis), and bootstrap moment clouds.

Conventions, fixed here once: population (divide-by-n) central moments;
non-excess kurtosis (a normal law sits at beta2 = 3); the Weibull family
has CDF 1 - exp(-(x/lambda)^k) with no location shift.

The normal CDF and its inverse are ports of Moshier's Cephes ``ndtr`` and
``ndtri`` (*Methods and Programs for Mathematical Functions*, 1989), the
routines scipy.special evaluates, so the package runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, DomainError, ParameterError

_WEIBULL_TOL = 1e-10
_WEIBULL_MAX_ITER = 100
#: parametric resamples drawn, refit and KS-tested at once: 2^15 values a
#: block, rows = max(1, 2^15 // n).  At n = 1,000 a 999-resample bootstrap
#: peaked at 2.5 MB traced (Weibull; normal 2.3) against 68.8 MB (normal
#: 36.5) as one (999, n) array.  Interleaved medians of 5 for blocks of
#: 2^13/2^14/2^15/2^16 values, on a loaded 2-core Xeon: Weibull n = 1,000
#: 111/115/157/178 ms, normal 70/63/75/78 ms; n = 2,000 Weibull 230/242/314/350.
#: BENCH_pr29.json measured 2^15; a smaller block needs its own record
_RESAMPLE_BLOCK = 2**15


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
            return _ndtr((x - a) / b)
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
            return a + b * _ndtri(p)
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


def ks_test(sample, fit: FitResult, mode: str = "parametric_bootstrap",
            n_resamples: int = 999, seed: int = 0) -> KsOutcome:
    """One-sample KS test of the sample against a fitted law, with a
    parametric-bootstrap p-value: resamples drawn from the fitted law are
    re-fitted and KS-tested, because with parameters estimated from the same
    data D does not follow Kolmogorov's law (Lilliefors, JASA 62, 399, 1967).
    The resamples are drawn, refit and KS-tested a block of rows at a time;
    the result equals the sequential per-resample procedure bit for bit.
    """
    # ``mode`` names perfbench's ks_test spans; it goes with ROADMAP item 10(a)
    if mode != "parametric_bootstrap":
        raise ParameterError(f"unknown ks mode {mode!r}")
    if not fit.converged:
        raise ParameterError("ks_test requires a converged fit")
    v = _as_values(sample)
    d = ks_statistic(v, fit)
    if n_resamples < 1:
        raise ParameterError("n_resamples must be >= 1")

    # degenerate resamples have D = inf: conservatively counted as extreme
    exceed = np.count_nonzero(_resample_distances(fit, v.size, n_resamples, seed) >= d)
    p = (1.0 + exceed) / (n_resamples + 1.0)
    return KsOutcome(d, float(p))


def _resample_distances(fit: FitResult, n: int, n_resamples: int, seed: int) -> np.ndarray:
    """KS distance of each parametric resample to its own row-wise refit; D =
    inf where the family's fit rejects the resample as degenerate (constant, or
    a normal spread underflowing to 0).  One Generator draws the resamples in
    blocks of ``_RESAMPLE_BLOCK // n`` rows, the same values as one
    (n_resamples, n) draw, and each block is refit and tested before the next."""
    rng = np.random.default_rng(seed)
    rows = max(1, _RESAMPLE_BLOCK // n)
    d = np.full(n_resamples, np.inf)
    for start in range(0, n_resamples, rows):
        with np.errstate(over="ignore"):  # an overflowing draw is rejected below
            x = fit.sample(rng, (min(rows, n_resamples - start), n))
        if fit.family == "weibull":
            x = np.maximum(x, 1e-300)
        if not np.isfinite(x).all():
            raise ParameterError("sample contains non-finite values")
        ok = x.max(axis=1) != x.min(axis=1)
        if fit.family == "normal":
            mu, sigma = x.mean(axis=1), x.std(axis=1)
            ok &= sigma != 0.0
            cdf = _ndtr((np.sort(x[ok], axis=1) - mu[ok, None]) / sigma[ok, None])
        else:
            k, lam, _ = _weibull_rows(x[ok])
            cdf = -np.expm1(-((np.sort(x[ok], axis=1) / lam[:, None]) ** k[:, None]))
        d[start:start + len(x)][ok] = _ks_distance(cdf)
    return d


# --- the normal CDF and its inverse: Cephes ndtr and ndtri ---------------
#
# Coefficients from Moshier's ndtr.c and ndtri.c; each denominator table
# carries the leading 1 that Cephes's p1evl implies.  libm exp and log
# (math.exp, math.log) keep the bits: numpy's SIMD exp differs from libm in
# the last place on a few percent of arguments.

_MAXLOG = 7.09782712893383996843e2  # log(2^1024)
_SQRT1_2 = 7.07106781186547524401e-1
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 1.3533528323661269189e-1  # exp(-2)
# erf(x) = x T(x^2) / U(x^2) for |x| < 1
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) beyond
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# ndtri: y + y P0(y^2)/Q0(y^2) about y = p - 0.5 for exp(-2) < p < 1 - exp(-2)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
# in the tails, x = sqrt(-2 log p): z P1(z)/Q1(z) with z = 1/x for 2 <= x < 8
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# ... and z P2(z)/Q2(z) for x >= 8
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coef: tuple) -> np.ndarray:
    """The polynomial with coefficients ``coef`` (highest power first) at x,
    as Cephes's polevl: a separate multiply and add per step, never fused."""
    out = np.full(x.shape, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (math.exp or math.log) of every element of the 1-d array x."""
    return np.fromiter(map(fn, x.tolist()), float, count=x.size)


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, bit for bit Cephes ndtr: 0.5 + 0.5 erf(a/sqrt2)
    while |a|/sqrt2 < 1, else from erfc(|a|/sqrt2), which is 0 once
    a^2/2 > MAXLOG."""
    x = np.multiply(a, _SQRT1_2, out=np.empty(np.shape(a)))
    z = np.abs(x)
    mid = z < 1.0
    xm = x[mid]
    z2 = xm * xm
    erf = _horner(z2, _ERF_T)
    erf *= xm
    erf /= _horner(z2, _ERF_U)
    erf *= 0.5
    erf += 0.5

    tail = ~mid
    zt = z[tail]
    with np.errstate(over="ignore"):  # a huge |a| squares to inf: erfc 0
        sq = zt * zt
    live = np.flatnonzero(~(sq > _MAXLOG))  # NaN stays live, to come out NaN
    zl = zt[live]
    near = zl < 8.0
    erfc = np.zeros_like(zt)
    erfc[live] = _libm(math.exp, -sq[live]) * np.where(
        near, _horner(zl, _ERFC_P), _horner(zl, _ERFC_R)) / np.where(
        near, _horner(zl, _ERFC_Q), _horner(zl, _ERFC_S))
    erfc *= 0.5
    x[mid] = erf
    x[tail] = np.where(x[tail] > 0, 1.0 - erfc, erfc)
    return x


def _ndtri(p) -> np.ndarray:
    """Inverse of the standard normal CDF on (0, 1), bit for bit Cephes ndtri."""
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _horner(y2, _NDTRI_P0) / _horner(y2, _NDTRI_Q0))) * _S2PI

    tail = ~mid
    x = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    z = 1.0 / x
    near = x < 8.0
    x1 = z * np.where(near, _horner(z, _NDTRI_P1), _horner(z, _NDTRI_P2)) / np.where(
        near, _horner(z, _NDTRI_Q1), _horner(z, _NDTRI_Q2))
    x = x - _libm(math.log, x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


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
    # m_r = Gamma(1 + r/k), via lgamma for large-k stability
    m = [math.exp(math.lgamma(1.0 + r / k)) for r in range(1, 5)]
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
